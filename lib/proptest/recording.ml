type access = { addr : int; write : bool; dependent : bool; ic : int }

type t = {
  mutable instrs : int;
  mutable mems : int;
  mutable base : int;  (** [instrs] at the previous [take] *)
  mutable log : access list;  (** reversed *)
  model : Hw.Model.t;
}

let create () =
  let rec t =
    {
      instrs = 0;
      mems = 0;
      base = 0;
      log = [];
      model =
        {
          Hw.Model.name = "recording";
          instr = (fun _ n -> t.instrs <- t.instrs + n);
          instr_pack =
            (fun counts ->
              for i = 0 to Hw.Cost.nkinds - 1 do
                t.instrs <- t.instrs + counts.(i)
              done);
          mem =
            (fun ~addr ~write ~dependent ->
              t.mems <- t.mems + 1;
              t.log <- { addr; write; dependent; ic = t.instrs - t.base }
                :: t.log);
          cycles = (fun () -> t.instrs + t.mems);
          instr_count = (fun () -> t.instrs);
          mem_count = (fun () -> t.mems);
          boundary = (fun _ -> ());
          mem_bulk = None;
          coupled_mem = true;
        };
    }
  in
  t

let model t = t.model

let take t =
  let log = List.rev t.log in
  t.log <- [];
  t.base <- t.instrs;
  log

let pp_access ppf a =
  Format.fprintf ppf "%s 0x%x%s at ic %d"
    (if a.write then "store" else "load")
    a.addr
    (if a.dependent then " (dependent)" else "")
    a.ic
