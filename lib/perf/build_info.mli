(** The build that produced this binary, generated by dune at build
    time. *)

val profile : string
(** Dune's build profile: ["release"] by default (the root
    [dune-workspace]), ["dev"] under [dune build --profile dev]. *)

val inline_budget : int
(** The [-inline] budget every library was compiled with (the root
    [inline_budget.sexp]). *)
