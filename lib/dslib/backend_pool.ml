let kind = "backend_pool"

type t = { last : int array; base : int; timeout : int }

let create ~base ~count ~timeout =
  if count < 1 || timeout < 1 then invalid_arg "Backend_pool.create";
  { last = Array.make count min_int; base; timeout }

let count t = Array.length t.last

let heartbeat t meter ~backend ~now =
  Costing.charge_alu meter 2;
  Costing.charge_branch meter 1;
  if backend < 0 || backend >= count t then 0
  else begin
    Costing.charge_store meter ~addr:(t.base + (8 * backend)) ();
    t.last.(backend) <- now;
    1
  end

let is_alive t meter ~backend ~now =
  Costing.charge_alu meter 2;
  Costing.charge_branch meter 1;
  if backend < 0 || backend >= count t then 0
  else begin
    Costing.charge_load meter ~addr:(t.base + (8 * backend)) ();
    Costing.charge_alu meter 1;
    Costing.charge_branch meter 1;
    if t.last.(backend) + t.timeout > now then 1 else 0
  end

let set_last_heartbeat t ~backend v = t.last.(backend) <- v

(* Sink twins of [heartbeat] and [is_alive], charge for charge (see
   {!Hash_map} for the discipline). *)
module S = Costing.Sink

let fast_heartbeat t s ~backend ~now =
  S.alu s 2;
  S.branch s 1;
  if backend < 0 || backend >= count t then 0
  else begin
    S.store s ~addr:(t.base + (8 * backend)) ();
    t.last.(backend) <- now;
    1
  end

let fast_is_alive t s ~backend ~now =
  S.alu s 2;
  S.branch s 1;
  if backend < 0 || backend >= count t then 0
  else begin
    S.load s ~addr:(t.base + (8 * backend)) ();
    S.alu s 1;
    S.branch s 1;
    if t.last.(backend) + t.timeout > now then 1 else 0
  end

let to_ds t =
  let call meter meth (args : int array) =
    match meth with
    | "heartbeat" -> heartbeat t meter ~backend:args.(0) ~now:args.(1)
    | "is_alive" -> is_alive t meter ~backend:args.(0) ~now:args.(1)
    | other -> invalid_arg ("backend_pool: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "heartbeat" ->
        Some
          (fun (args : int array) ->
            fast_heartbeat t s ~backend:args.(0) ~now:args.(1))
    | "is_alive" ->
        Some
          (fun (args : int array) ->
            fast_is_alive t s ~backend:args.(0) ~now:args.(1))
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  let vec ic ma =
    Cost_vec.make ~ic:(Perf_expr.const ic) ~ma:(Perf_expr.const ma)
      ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const ic)
                 ~ma:(Perf_expr.const ma))

  let contract =
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"heartbeat"
        [ branch ~tag:"ok" ~note:"timestamp store" (vec 4 1) ];
      make ~ds_kind:kind ~meth:"is_alive"
        [
          branch ~tag:"alive" ~note:"heartbeat within timeout" (vec 7 1);
          branch ~tag:"dead" ~note:"no recent heartbeat" (vec 7 1);
        ];
    ]
end
