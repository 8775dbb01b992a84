(** Environment provenance for benchmark artifacts.

    Every tracked [BENCH_*.json] embeds this block, so numbers measured
    on a 1-core CI container are self-describing instead of relying on a
    prose caveat: a reader (or a later diffing tool) can see at a glance
    how much hardware parallelism the producing process actually had,
    which OCaml compiled it with which build profile and inlining
    budget, and how large the workload was. *)

val json : ?packets:int -> unit -> Json.t
(** An [Obj] with [ocaml_version], [word_size],
    [recommended_domains] ({!Domain.recommended_domain_count} at write
    time — the gate every multicore speedup assertion keys on),
    [build_profile] and [inline_budget] (the binary that measured, from
    {!Build_info}) and, when given, the artifact's [packets] workload
    size. *)
