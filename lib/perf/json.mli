(** A minimal JSON representation with a printer and parser.

    Contracts are an interchange artifact — an operator should be able to
    consume one without running BOLT — so the library carries its own
    dependency-free codec.  Integers only (contract coefficients are
    integral); strings support the escapes JSON requires. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
val pp : Format.formatter -> t -> unit

val write_file : path:string -> t -> unit
(** Writes [to_string ~indent:true] and a trailing newline to [path] —
    the one writer for every exported JSON artifact. *)

val of_string : string -> (t, string) result
(** Parses the subset emitted by {!to_string} (no floats); errors carry a
    character position. *)

(** {1 Accessors} *)

val member : string -> t -> (t, string) result
val to_int : t -> (int, string) result
val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
