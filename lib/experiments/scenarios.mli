(** The 14 NF/packet-class scenarios of paper Figure 1 and Table 3.

    For each scenario the BOLT prediction (contract evaluated at the
    class's PCV bindings) is compared against a measured run of the
    production build: per-packet maxima of IC and MA, and realistic-
    simulator cycles.  The three pathological scenarios (NAT1, Br1, LB1)
    synthesize their mass-expiry state directly, as the paper did.

    Every scenario group splits into a serial construction phase (PRNG
    draws, adversarial state filling — order-sensitive) and a
    measurement phase that fans out over an {!Exec.Pool}: rows are
    bit-identical for every [jobs] value, and [jobs:1] runs entirely in
    the calling domain.  [jobs] sizes only that fan-out, where one item
    is a whole group or a whole measurement; each group's contract is
    derived on the domain that builds it. *)

type params = {
  patho_capacity : int;  (** table size for the mass-expiry scenarios *)
  flows : int;  (** flows per typical scenario *)
  seed : int;
}

val default_params : params
val quick_params : params
(** Small sizes for the test suite. *)

val nat_rows : ?params:params -> ?jobs:int -> unit -> Harness.row list
val bridge_rows : ?params:params -> ?jobs:int -> unit -> Harness.row list
val lb_rows : ?params:params -> ?jobs:int -> unit -> Harness.row list
val lpm_rows : ?params:params -> ?jobs:int -> unit -> Harness.row list

val figure1_table3 : ?params:params -> ?jobs:int -> unit -> Harness.row list
(** All 14 rows, in the paper's order: NAT1–4, Br1–3, LB1–5, LPM1–2.
    The four groups are constructed concurrently (each from its own
    seeded PRNG) and all 14 measurements share one pool. *)

val conntrack_rows : ?params:params -> ?jobs:int -> unit -> Harness.row list
(** The same predicted-vs-measured comparison for the (non-paper)
    connection-tracking firewall: CT1–CT5. *)
