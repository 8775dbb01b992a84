type t = {
  name : string;
  instr : Cost.kind -> int -> unit;
  instr_pack : int array -> unit;
  mem : addr:int -> write:bool -> dependent:bool -> unit;
  cycles : unit -> int;
  instr_count : unit -> int;
  mem_count : unit -> int;
  boundary : (int * int) list -> unit;
  mem_bulk : (int -> unit) option;
  coupled_mem : bool;
}

(* One [instr] charge per kind the pack touches. *)
let pack_of_instr instr (counts : int array) =
  for i = 0 to Cost.nkinds - 1 do
    let n = Array.unsafe_get counts i in
    if n > 0 then instr (Array.unsafe_get Cost.kind_of_index i) n
  done

let conservative () =
  let m = Conservative.create () in
  {
    name = "conservative";
    mem_bulk = None;
    coupled_mem = false;
    (* eta-expanded so the stored closures carry their full arity:
       a bare partial application is applied one argument at a time,
       allocating an intermediate closure on every single charge *)
    instr = (fun kind n -> Conservative.instr m kind n);
    instr_pack = pack_of_instr (fun kind n -> Conservative.instr m kind n);
    mem =
      (fun ~addr ~write ~dependent -> Conservative.mem m ~addr ~write ~dependent);
    cycles = (fun () -> Conservative.cycles m);
    instr_count = (fun () -> Conservative.instr_count m);
    mem_count = (fun () -> Conservative.mem_count m);
    boundary = (fun _ -> ());
  }

let of_realistic m =
  {
    name = "realistic";
    mem_bulk = None;
    coupled_mem = true;
    instr = (fun kind n -> Realistic.instr m kind n);
    instr_pack = (fun counts -> Realistic.instr_pack m counts);
    mem =
      (fun ~addr ~write ~dependent -> Realistic.mem m ~addr ~write ~dependent);
    cycles = (fun () -> Realistic.cycles m);
    instr_count = (fun () -> Realistic.instr_count m);
    mem_count = (fun () -> Realistic.mem_count m);
    boundary = (fun regions -> Realistic.packet_boundary m ~regions);
  }

let realistic () = of_realistic (Realistic.create ())

let dram_only () =
  let instrs = ref 0 and mems = ref 0 and cycles = ref 0 in
  let charge kind n =
    instrs := !instrs + n;
    cycles := !cycles + (n * Cost.worst_case_cycles kind)
  in
  {
    name = "dram_only";
    mem_bulk =
      Some
        (fun n ->
          mems := !mems + n;
          cycles := !cycles + (n * Cost.dram_cycles));
    coupled_mem = false;
    instr = charge;
    instr_pack = pack_of_instr charge;
    mem =
      (fun ~addr:_ ~write:_ ~dependent:_ ->
        incr mems;
        cycles := !cycles + Cost.dram_cycles);
    cycles = (fun () -> !cycles);
    instr_count = (fun () -> !instrs);
    mem_count = (fun () -> !mems);
    boundary = (fun _ -> ());
  }

let null () =
  let instrs = ref 0 and mems = ref 0 in
  {
    name = "null";
    mem_bulk = Some (fun n -> mems := !mems + n);
    coupled_mem = false;
    instr = (fun _ n -> instrs := !instrs + n);
    instr_pack =
      (fun counts ->
        for i = 0 to Cost.nkinds - 1 do
          instrs := !instrs + Array.unsafe_get counts i
        done);
    mem = (fun ~addr:_ ~write:_ ~dependent:_ -> incr mems);
    cycles = (fun () -> 0);
    instr_count = (fun () -> !instrs);
    mem_count = (fun () -> !mems);
    boundary = (fun _ -> ());
  }
