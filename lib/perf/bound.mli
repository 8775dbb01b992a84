(** The per-packet soundness check of a contract (paper §2.2): a packet's
    measured cost stays under the contract at that packet's own PCVs.

    {!compile} a cost vector once; then, per packet, {!clear} an
    accumulator, {!observe} the packet's PCV observations (max-merged per
    PCV; a PCV never observed binds to 0) and {!check} its measured IC
    and MA, or {!eval} a metric.  None of these allocates unless the
    packet violates the bound. *)

type t
(** A cost vector compiled over PCV slots: the sorted union of the
    tracked PCVs ([c e n o s t]) and the vector's own. *)

val compile : Cost_vec.t -> t

type violation = {
  packet_index : int;
  metric : Metric.t;
  bound : int;
  measured : int;
  binding : Pcv.binding;  (** every slot, in slot order *)
}

type report = {
  packets : int;
  violations : violation list;  (** per packet, IC before MA *)
  worst_headroom_pct : float;
      (** smallest 100·(bound - measured)/bound over the checks under a
          positive bound; 100 if none *)
}

type acc
(** The current packet's binding, and the report so far. *)

val acc : t -> acc
val clear : acc -> unit

val observe : acc -> (Pcv.t * int) list -> unit
(** PCVs outside the slots are ignored. *)

val eval : acc -> Metric.t -> int
(** {!Cost_vec.eval_exn} at the current binding, ints wrapping alike. *)

val check : acc -> ic:int -> ma:int -> unit
(** Check the current packet; packets are indexed from 0 in check order. *)

val report : acc -> report

val pp_report : subject:string -> Format.formatter -> report -> unit
(** [subject] names what was checked, e.g. ["contract"]. *)
