(** The spec-parameterized router: one module, two LPM backends.

    [`Dir24_8] is the paper's production LPM (DPDK dir-24-8, classes
    LPM1/LPM2, decrements TTL); [`Trie] is the stylised running example
    (§2.1 Algorithm 1, Patricia trie, forwards untouched). *)

val instance : string

val name : Dslib.Backends.lpm -> string
(** Registry name: ["lpm_router"] / ["trie_router"]. *)

val of_name : string -> Dslib.Backends.lpm option
(** Inverse of [name] over the two registry aliases. *)

val program : Dslib.Backends.lpm -> Ir.Program.t

val setup :
  Dslib.Backends.lpm ->
  Dslib.Layout.allocator ->
  routes:(int * int * int) list ->
  Exec.Ds.env * Dslib.Backends.Lpm.instance
(** [routes] are [(prefix, len, port)] triples. *)

val contracts : Dslib.Backends.lpm -> Perf.Ds_contract.library
val classes : Dslib.Backends.lpm -> Symbex.Iclass.t list

val stylized_contract : Perf.Contract.t
(** Paper Table 1, the [`Trie] router's stylised contract: Table 2's
    trie lookup contract composed with the stylised costs of the
    stateless code (2 instructions / 1 access for the invalid path; +3
    instructions / +2 accesses around the lookup for the valid path) —
    the paper's convention of ignoring every layer below the NF. *)
