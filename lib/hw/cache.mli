(** Set-associative LRU cache simulator.

    The warm L1/L2/L3 hierarchy and DTLB of the realistic model.  The
    conservative model's cold, per-path L1D ({!Conservative}) follows the
    same geometry and LRU rule as {!l1d}, in a lazily allocated form of
    its own. *)

type t

val create : size_bytes:int -> assoc:int -> t
(** Raises [Invalid_argument] if geometry is inconsistent (sizes must be
    multiples of [assoc * line_size]). *)

val l1d : unit -> t
(** A 32 KiB, 8-way L1 data cache. *)

val l2 : unit -> t
(** A 256 KiB, 8-way L2. *)

val l3 : unit -> t
(** A 2.5 MiB (per-core slice), 20-way L3. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing byte address [addr];
    returns [true] on hit.  On miss the line is filled (LRU victim
    evicted). *)

val access_line : t -> int -> bool
val insert_line : t -> int -> unit

val remove_line : t -> int -> unit
(** {!access}, {!insert} and {!remove} of a line number rather than an
    address. *)

val probe : t -> int -> bool
(** [probe t addr] is a hit test without state change. *)

val insert : t -> int -> unit
(** Fill a line without counting an access (used for prefetches). *)

val remove : t -> int -> unit
(** Invalidate the line containing the address, if present (DMA). *)

val insert_range : t -> base:int -> size:int -> unit
(** [insert] every line of the [size]-byte region at [base], in address
    order. *)

val remove_range : t -> base:int -> size:int -> unit
(** [remove] every line of the [size]-byte region at [base]. *)

val line_of_addr : int -> int

val line_shift : int
(** [line_of_addr addr] is [addr lsr line_shift] for [addr >= 0]. *)

val stats : t -> int * int
(** [(hits, misses)] since creation. *)
