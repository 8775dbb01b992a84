(* Tests for the hardware models (lib/hw). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_triple = Alcotest.(check (triple int int int))

let test_cache_basic () =
  let cache = Hw.Cache.create ~size_bytes:1024 ~assoc:2 in
  check_bool "cold miss" false (Hw.Cache.access cache 0);
  check_bool "warm hit" true (Hw.Cache.access cache 0);
  check_bool "same line hit" true (Hw.Cache.access cache 63);
  check_bool "next line miss" false (Hw.Cache.access cache 64);
  let hits, misses = Hw.Cache.stats cache in
  check_int "hits" 2 hits;
  check_int "misses" 2 misses

let test_cache_lru_eviction () =
  (* 1024B, 2-way, 64B lines → 8 sets; lines 0, 8, 16 map to set 0 *)
  let cache = Hw.Cache.create ~size_bytes:1024 ~assoc:2 in
  let addr line = line * 64 in
  ignore (Hw.Cache.access cache (addr 0));
  ignore (Hw.Cache.access cache (addr 8));
  ignore (Hw.Cache.access cache (addr 0)) (* promote line 0 *);
  ignore (Hw.Cache.access cache (addr 16)) (* evicts line 8 (LRU) *);
  check_bool "line 0 survives" true (Hw.Cache.probe cache (addr 0));
  check_bool "line 8 evicted" false (Hw.Cache.probe cache (addr 8));
  check_bool "line 16 present" true (Hw.Cache.probe cache (addr 16))

let test_cache_remove_insert () =
  let cache = Hw.Cache.create ~size_bytes:1024 ~assoc:2 in
  Hw.Cache.insert cache 128;
  check_bool "inserted" true (Hw.Cache.probe cache 128);
  Hw.Cache.remove cache 128;
  check_bool "removed" false (Hw.Cache.probe cache 128);
  Hw.Cache.remove cache 128 (* idempotent *);
  check_bool "still absent" false (Hw.Cache.probe cache 128)

let test_cache_geometry () =
  match Hw.Cache.create ~size_bytes:100 ~assoc:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad geometry accepted"

let test_conservative () =
  let m = Hw.Conservative.create () in
  Hw.Conservative.instr m Hw.Cost.Alu 10;
  check_int "alu cycles" (10 * Hw.Cost.worst_case_cycles Hw.Cost.Alu)
    (Hw.Conservative.cycles m);
  let before = Hw.Conservative.cycles m in
  Hw.Conservative.mem m ~addr:0x1000 ~write:false ~dependent:false;
  check_int "cold access costs DRAM" (before + Hw.Cost.dram_cycles)
    (Hw.Conservative.cycles m);
  let before = Hw.Conservative.cycles m in
  Hw.Conservative.mem m ~addr:0x1001 ~write:false ~dependent:false;
  check_int "proven L1 hit" (before + Hw.Cost.l1_hit_cycles)
    (Hw.Conservative.cycles m);
  check_int "counts" 2 (Hw.Conservative.mem_count m)

let test_realistic_warm () =
  let m = Hw.Realistic.create () in
  Hw.Realistic.mem m ~addr:0x5000 ~write:false ~dependent:false;
  let after_first = Hw.Realistic.cycles m in
  Hw.Realistic.mem m ~addr:0x5000 ~write:false ~dependent:false;
  check_int "second access is an L1 hit"
    (after_first + Hw.Cost.l1_hit_cycles)
    (Hw.Realistic.cycles m)

let test_realistic_prefetch () =
  (* A long sequential dependent walk should cost far less per line than
     DRAM once the prefetcher locks on. *)
  let sequential = Hw.Realistic.create () in
  for i = 0 to 63 do
    Hw.Realistic.mem sequential ~addr:(0x100000 + (i * 64)) ~write:false
      ~dependent:true
  done;
  let random = Hw.Realistic.create () in
  (* same lines, shuffled stride so no prefetch *)
  for i = 0 to 63 do
    let j = i * 17 mod 64 in
    Hw.Realistic.mem random ~addr:(0x200000 + (j * 64)) ~write:false
      ~dependent:true
  done;
  check_bool "prefetching pays" true
    (Hw.Realistic.cycles sequential < Hw.Realistic.cycles random / 2)

let test_realistic_boundary () =
  let m = Hw.Realistic.create () in
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  let warm = Hw.Realistic.cycles m in
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  check_int "warm hit" (warm + Hw.Cost.l1_hit_cycles)
    (Hw.Realistic.cycles m);
  Hw.Realistic.packet_boundary m ~regions:[ (0x1000_0000, 2048) ];
  let before = Hw.Realistic.cycles m in
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  check_int "DMA pushed the line to L3 (DDIO)"
    (before + Hw.Cost.l3_hit_cycles)
    (Hw.Realistic.cycles m)

let test_conservative_exceeds_realistic () =
  (* On an arbitrary access pattern the conservative model must charge at
     least as much as the realistic one. *)
  let rng = Workload.Prng.create ~seed:3 in
  let cons = Hw.Model.conservative () in
  let real = Hw.Model.realistic () in
  for _ = 1 to 2000 do
    let addr = 0x4000_0000 + (Workload.Prng.below rng 512 * 64) in
    let dependent = Workload.Prng.bool rng 0.5 in
    cons.Hw.Model.instr Hw.Cost.Alu 3;
    real.Hw.Model.instr Hw.Cost.Alu 3;
    cons.Hw.Model.instr Hw.Cost.Branch 1;
    real.Hw.Model.instr Hw.Cost.Branch 1;
    cons.Hw.Model.mem ~addr ~write:false ~dependent;
    real.Hw.Model.mem ~addr ~write:false ~dependent
  done;
  check_bool "conservative >= realistic" true
    (cons.Hw.Model.cycles () >= real.Hw.Model.cycles ())

let test_null_model () =
  let m = Hw.Model.null () in
  m.Hw.Model.instr Hw.Cost.Div 5;
  m.Hw.Model.mem ~addr:0 ~write:true ~dependent:false;
  check_int "cycles stay zero" 0 (m.Hw.Model.cycles ())

let test_tlb_penalty () =
  (* touching many distinct pages costs more than the same number of
     accesses within one page, through the DTLB penalty alone *)
  let many_pages = Hw.Realistic.create () in
  for i = 0 to 255 do
    Hw.Realistic.mem many_pages ~addr:(i * 4096 * 3) ~write:false
      ~dependent:true
  done;
  let one_page = Hw.Realistic.create () in
  for i = 0 to 255 do
    (* distinct lines of the same few pages, same cache behaviour class *)
    Hw.Realistic.mem one_page ~addr:(i * 64 * 193 mod 8192) ~write:false
      ~dependent:true
  done;
  check_bool "page walks cost" true
    (Hw.Realistic.cycles many_pages > Hw.Realistic.cycles one_page)

(* ---- Cache against a list-based LRU reference ------------------------ *)

(* The obvious model: one MRU-first list of line tags per set, with the
   same line/set arithmetic as the simulator's general path. *)
module Ref_lru = struct
  type t = {
    sets : int list array;
    assoc : int;
    mutable hits : int;
    mutable misses : int;
  }

  let line = Hw.Cost.line_size

  let create ~size_bytes ~assoc =
    {
      sets = Array.make (size_bytes / line / assoc) [];
      assoc;
      hits = 0;
      misses = 0;
    }

  let locate t addr =
    let l = addr / line in
    (l mod Array.length t.sets, l)

  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []

  let without l ways = List.filter (fun w -> w <> l) ways

  let probe t addr =
    let s, l = locate t addr in
    List.mem l t.sets.(s)

  let insert t addr =
    let s, l = locate t addr in
    t.sets.(s) <- take t.assoc (l :: without l t.sets.(s))

  let access t addr =
    let hit = probe t addr in
    insert t addr;
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    hit

  let remove t addr =
    let s, l = locate t addr in
    t.sets.(s) <- without l t.sets.(s)

  let range f t ~base ~size =
    for k = 0 to ((size + line - 1) / line) - 1 do
      f t (base + (k * line))
    done
end

(* Power-of-two set counts (shift/mask) and others (mod), a single set
   and a direct-mapped cache. *)
let geometries =
  [| (1024, 2); (4096, 4); (192, 3); (1920, 3); (3072, 4); (320, 1) |]

type cache_op =
  | Access of int
  | Probe of int
  | Insert of int
  | Remove of int
  | Insert_range of int * int
  | Remove_range of int * int
  | Again of bool
      (** access ([true]) or insert the address of the last [Access] or
          [Insert] again: a hit in the MRU way *)

let pp_cache_op = function
  | Access a -> Printf.sprintf "access %d" a
  | Probe a -> Printf.sprintf "probe %d" a
  | Insert a -> Printf.sprintf "insert %d" a
  | Remove a -> Printf.sprintf "remove %d" a
  | Insert_range (b, n) -> Printf.sprintf "insert_range %d %d" b n
  | Remove_range (b, n) -> Printf.sprintf "remove_range %d %d" b n
  | Again access -> if access then "access again" else "insert again"

(* Addresses over three times the capacity in lines, so sets overflow; a
   few are negative, down to lines that index no set at all. *)
let cache_case_gen =
  let open QCheck2.Gen in
  int_range 0 (Array.length geometries - 1) >>= fun g ->
  let size_bytes, _ = geometries.(g) in
  let addr =
    frequency
      [
        (20, int_range 0 ((3 * size_bytes) - 1));
        (1, int_range (-3 * Hw.Cost.line_size) (-1));
      ]
  in
  let op =
    frequency
      [
        (6, map (fun a -> Access a) addr);
        (3, map (fun a -> Probe a) addr);
        (2, map (fun a -> Insert a) addr);
        (2, map (fun a -> Remove a) addr);
        (1, map2 (fun a n -> Insert_range (a, n)) addr (int_range (-64) 1600));
        (1, map2 (fun a n -> Remove_range (a, n)) addr (int_range (-64) 1600));
        (* most simulated hits are MRU hits *)
        (10, map (fun a -> Again a) (frequencyl [ (3, true); (1, false) ]));
      ]
  in
  pair (return g) (list_size (int_range 1 300) op)

let prop_cache_matches_reference =
  QCheck2.Test.make ~count:300 ~name:"cache agrees with a list-based LRU"
    ~print:(fun (g, ops) ->
      let size_bytes, assoc = geometries.(g) in
      Printf.sprintf "%d B %d-way: %s" size_bytes assoc
        (String.concat "; " (List.map pp_cache_op ops)))
    cache_case_gen
    (fun (g, ops) ->
      let size_bytes, assoc = geometries.(g) in
      let c = Hw.Cache.create ~size_bytes ~assoc in
      let r = Ref_lru.create ~size_bytes ~assoc in
      (* a negative line indexes no set: both sides raise *)
      let outcome f =
        match f () with b -> Some b | exception Invalid_argument _ -> None
      in
      let both f g = (outcome f, outcome g) in
      let unit f () = f (); false in
      let last = ref 0 in
      let access a =
        last := a;
        both (fun () -> Hw.Cache.access c a) (fun () -> Ref_lru.access r a)
      and insert a =
        last := a;
        both
          (unit (fun () -> Hw.Cache.insert c a))
          (unit (fun () -> Ref_lru.insert r a))
      in
      let step op =
        let got, want =
          match op with
          | Access a -> access a
          | Again true -> access !last
          | Again false -> insert !last
          | Probe a ->
              both (fun () -> Hw.Cache.probe c a) (fun () -> Ref_lru.probe r a)
          | Insert a -> insert a
          | Remove a ->
              both
                (unit (fun () -> Hw.Cache.remove c a))
                (unit (fun () -> Ref_lru.remove r a))
          | Insert_range (base, size) ->
              both
                (unit (fun () -> Hw.Cache.insert_range c ~base ~size))
                (unit (fun () -> Ref_lru.range Ref_lru.insert r ~base ~size))
          | Remove_range (base, size) ->
              both
                (unit (fun () -> Hw.Cache.remove_range c ~base ~size))
                (unit (fun () -> Ref_lru.range Ref_lru.remove r ~base ~size))
        in
        got = want && Hw.Cache.stats c = (r.Ref_lru.hits, r.Ref_lru.misses)
      in
      let resident a = Hw.Cache.probe c a = Ref_lru.probe r a in
      List.for_all step ops
      && List.for_all resident
           (List.init (3 * size_bytes / Hw.Cost.line_size) (fun l ->
                l * Hw.Cost.line_size)))

(* ---- Realistic model: pinned cycles and an allocation-free hot path --- *)

(* A fixed-seed stream mixing every kind of event the realistic model
   sees.  It draws from its own LCG, so the pinned figure depends on
   lib/hw alone. *)
let mixed_stream_cycles () =
  let m = Hw.Realistic.create () in
  let state = ref 0x2545_F491 in
  let next bound =
    state := ((!state * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    (!state lsr 16) mod bound
  in
  let kinds = Array.of_list Hw.Cost.all_kinds in
  let mem addr ~dependent =
    Hw.Realistic.mem m ~addr ~write:(next 2 = 0) ~dependent
  in
  for pkt = 0 to 599 do
    let buf = 0x1000_0000 + (next 512 * 2048) in
    Hw.Realistic.packet_boundary m
      ~regions:[ (buf, 1514); (0x7000_0000 + (pkt mod 256 * 16), 16) ];
    for _ = 1 to 6 + next 10 do
      Hw.Realistic.instr m kinds.(next (Array.length kinds)) (1 + next 8);
      match next 6 with
      | 0 ->
          (* header reads: lines the DMA just parked in L3 *)
          mem (buf + next 256) ~dependent:false
      | 1 ->
          (* a sequential walk trains the next-line prefetcher *)
          let base = 0x2000_0000 + (next 4096 * 64) in
          for i = 0 to 4 + next 16 do
            mem (base + (i * 64)) ~dependent:true;
            Hw.Realistic.instr m Hw.Cost.Alu 2
          done
      | 2 ->
          (* a burst of independent DRAM misses overlaps *)
          for _ = 1 to 2 + next 6 do
            mem (0x4000_0000 + (next (1 lsl 22) * 64)) ~dependent:false;
            Hw.Realistic.instr m Hw.Cost.Load 1
          done
      | 3 ->
          (* a table's working set: mostly L2 and L3 *)
          mem (0x3000_0000 + (next 16384 * 64) + next 64)
            ~dependent:(next 2 = 0)
      | 4 ->
          (* scattered line pairs leave stale predictions behind until
             the prefetch table resets *)
          for _ = 1 to 40 do
            let base = 0x6000_0000 + (next (1 lsl 20) * 128) in
            mem base ~dependent:true;
            mem (base + 64) ~dependent:true
          done
      | _ ->
          (* small hot state: L1 *)
          mem (0x5000_0000 + next 2048) ~dependent:false
    done
  done;
  (Hw.Realistic.cycles m, Hw.Realistic.instr_count m, Hw.Realistic.mem_count m)
(* The figures of the simulator before its cache was flattened: any
   change to them is a change to every measured cycle. *)
let test_realistic_pinned () =
  check_int_triple "cycles, instrs, mems of the mixed stream"
    (18549565, 58493, 106884) (mixed_stream_cycles ())

(* Minor words [f ()] allocates; the two trailing reads measure the
   probe's own cost so it can be subtracted. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  int_of_float (w1 -. w0 -. (w2 -. w1))

let test_hot_path_alloc () =
  let c = Hw.Cache.l1d () in
  (* twice the capacity: hits, misses and full-set evictions *)
  let span = 2 * 32 * 1024 in
  let cache_ops () =
    for i = 0 to 4095 do
      let a = i * 97 mod span in
      ignore (Hw.Cache.access c a : bool);
      ignore (Hw.Cache.probe c (a + 4096) : bool);
      Hw.Cache.remove c (a + 8192)
    done
  in
  cache_ops ();
  check_int "Cache.access/probe/remove" 0 (minor_words cache_ops);
  let m = Hw.Realistic.create () in
  let mem addr = Hw.Realistic.mem m ~addr ~write:false ~dependent:false in
  let line = Hw.Cost.line_size in
  (* L1 hits: four warm lines, none adjacent to the last miss *)
  let hot = Array.init 4 (fun k -> 0x10_0000 + (k * 3 * line)) in
  Array.iter mem hot;
  let before = Hw.Realistic.cycles m in
  let words =
    minor_words (fun () ->
        for i = 0 to 999 do
          mem hot.(i land 3)
        done)
  in
  check_int "Realistic.mem L1-hit path" 0 words;
  check_int "all L1 hits" (1000 * Hw.Cost.l1_hit_cycles)
    (Hw.Realistic.cycles m - before);
  (* L3 hits: DMA parks four pages in L3 after one access per page has
     warmed the DTLB; the even lines are then read, never two adjacent
     lines in a row, so the prefetcher stays untrained *)
  let base = 0x80_0000 and page = 4096 in
  for p = 0 to 3 do
    mem (base + (p * page) + line)
  done;
  Hw.Realistic.packet_boundary m ~regions:[ (base, 4 * page) ];
  let before = Hw.Realistic.cycles m in
  let evens = 4 * page / line / 2 in
  let words =
    minor_words (fun () ->
        for k = 0 to evens - 1 do
          mem (base + (2 * k * line))
        done)
  in
  check_int "Realistic.mem L3-hit path" 0 words;
  check_int "all L3 hits" (evens * Hw.Cost.l3_hit_cycles)
    (Hw.Realistic.cycles m - before);
  (* boundaries on the regions of the last one, each after a packet that
     touched some of their lines: the Distiller's packet and RX ring *)
  let regions = [ (base, 2048); (base + (2 * page), 256) ] in
  let packets () =
    for i = 0 to 255 do
      Hw.Realistic.packet_boundary m ~regions;
      mem (base + ((i land 31) * line));
      mem (base + (2 * page) + ((i land 3) * line))
    done
  in
  packets ();
  check_int "Realistic.packet_boundary on repeated regions" 0
    (minor_words packets)

(* ---- DMA boundaries: tracked against the full remove/insert path ----- *)

(* The realistic model as it was before boundaries tracked touched lines:
   every boundary removes every region line from L1 and L2 and re-inserts
   it into L3.  It shares only [Hw.Cache], which the LRU property above
   checks on its own. *)
module Ref_realistic = struct
  type t = {
    l1 : Hw.Cache.t;
    l2 : Hw.Cache.t;
    l3 : Hw.Cache.t;
    dtlb : Hw.Cache.t;
    predicted : (int, unit) Hashtbl.t;
    mutable last_miss_line : int;
    mutable last_miss_instr : int;
    mutable overlap : int;
    mutable instrs : int;
    mutable mem_cycles : int;
    mutable branches : int;
  }

  let create () =
    {
      l1 = Hw.Cache.l1d ();
      l2 = Hw.Cache.l2 ();
      l3 = Hw.Cache.l3 ();
      dtlb = Hw.Cache.create ~size_bytes:(64 * 64) ~assoc:4;
      predicted = Hashtbl.create 256;
      last_miss_line = min_int;
      last_miss_instr = min_int;
      overlap = 1;
      instrs = 0;
      mem_cycles = 0;
      branches = 0;
    }

  let instr t kind n =
    t.instrs <- t.instrs + n;
    if kind = Hw.Cost.Branch then begin
      t.branches <- t.branches + n;
      t.mem_cycles <-
        t.mem_cycles + (15 * ((t.branches / 32) - ((t.branches - n) / 32)))
    end

  let packet_boundary t ~regions =
    List.iter
      (fun (base, size) ->
        Hw.Cache.remove_range t.l1 ~base ~size;
        Hw.Cache.remove_range t.l2 ~base ~size;
        Hw.Cache.insert_range t.l3 ~base ~size)
      regions

  let mem t ~addr ~dependent =
    if not (Hw.Cache.access t.dtlb (addr / 4096 * Hw.Cost.line_size)) then
      t.mem_cycles <- t.mem_cycles + 7;
    let line = Hw.Cache.line_of_addr addr in
    let cost =
      if Hw.Cache.access t.l1 addr then Hw.Cost.l1_hit_cycles
      else if Hashtbl.mem t.predicted line then begin
        Hashtbl.remove t.predicted line;
        Hashtbl.replace t.predicted (line + 1) ();
        Hw.Cache.insert t.l2 addr;
        if dependent then Hw.Cost.prefetched_hit_cycles
        else Hw.Cost.l1_hit_cycles
      end
      else if Hw.Cache.access t.l2 addr then Hw.Cost.l2_hit_cycles
      else if Hw.Cache.access t.l3 addr then Hw.Cost.l3_hit_cycles
      else begin
        let in_burst = t.instrs - t.last_miss_instr < 48 in
        let overlap =
          if dependent || not in_burst then 1
          else min Hw.Cost.mlp_max (t.overlap + 1)
        in
        t.overlap <- overlap;
        t.last_miss_instr <- t.instrs;
        Hw.Cost.dram_cycles / overlap
      end
    in
    if line = t.last_miss_line + 1 then begin
      if Hashtbl.length t.predicted > 4096 then Hashtbl.reset t.predicted;
      Hashtbl.replace t.predicted (line + 1) ();
      Hashtbl.replace t.predicted (line + 2) ()
    end;
    if cost >= Hw.Cost.l2_hit_cycles then t.last_miss_line <- line;
    t.mem_cycles <- t.mem_cycles + cost

  let cycles t = (t.instrs / Hw.Cost.ipc) + t.mem_cycles

  let probe t addr =
    ( Hw.Cache.probe t.l1 addr,
      Hw.Cache.probe t.l2 addr,
      Hw.Cache.probe t.l3 addr )
end

type dma_op =
  | Instr of Hw.Cost.kind * int
  | Touch of int * int * bool
      (** region (index mod the packet's regions), offset from a line
          before it, dependent *)
  | Walk of int * int * int
      (** a dependent sequential walk of [n] lines from a region offset:
          it trains the prefetcher, so region lines arrive as prefetch hits *)
  | Elsewhere of int * bool  (** an address the regions may conflict with *)

(* A case: candidate region lists, and packets, each the index of its
   region list and the accesses it makes. *)
type dma_case = {
  sets : (int * int) list array;
  packets : (int * dma_op list) list;
}

let pp_dma_op =
  let dep d = if d then " dep" else "" in
  function
  | Instr (k, n) -> Printf.sprintf "instr %s %d" (Hw.Cost.kind_to_string k) n
  | Touch (r, off, d) -> Printf.sprintf "touch %d+%d%s" r off (dep d)
  | Walk (r, off, n) -> Printf.sprintf "walk %d+%d x%d" r off n
  | Elsewhere (a, d) -> Printf.sprintf "mem %d%s" a (dep d)

let pp_dma_case c =
  let pp_regions rs =
    String.concat " " (List.map (fun (b, n) -> Printf.sprintf "(%d,%d)" b n) rs)
  in
  Printf.sprintf "sets [%s]\n%s"
    (String.concat "; " (Array.to_list (Array.map pp_regions c.sets)))
    (String.concat "\n"
       (List.map
          (fun (set, ops) ->
            Printf.sprintf "  packet on set %d: %s" set
              (String.concat "; " (List.map pp_dma_op ops)))
          c.packets))

let dma_case_gen =
  let open QCheck2.Gen in
  let region =
    let* base =
      frequency
        [
          (4, map (fun k -> 0x1000_0000 + (k * 64)) (int_range 0 64));
          (3, map (fun k -> 0x1000_0000 + k) (int_range 0 4096));
          (2, map (fun k -> 0x7000_0000 + (k * 16)) (int_range 0 255));
          (* negative bases: still line 0 above -64, a negative line (which
             no cache can index) below *)
          (1, int_range (-63) (-1));
          (1, int_range (-300) (-64));
        ]
    and* size = frequency [ (6, int_range 1 2560); (1, int_range (-70) 0) ] in
    return (base, size)
  in
  let distiller =
    [ (Exec.Interp.packet_base, 2048); (Exec.Interp.rx_ring_base, 256) ]
  in
  let* sets =
    frequency
      [
        (2, map (fun r -> [| [ r ] |]) region);
        (2, return [| distiller |]);
        (3, array_size (int_range 2 3) (list_size (int_range 1 3) region));
      ]
  in
  let kinds = Array.of_list Hw.Cost.all_kinds in
  let op =
    frequency
      [
        (2, map2 (fun k n -> Instr (kinds.(k), n))
              (int_range 0 (Array.length kinds - 1)) (int_range 1 60));
        (6, map3 (fun r off dep -> Touch (r, off, dep))
              (int_range 0 2) (int_range 0 (1 lsl 16)) bool);
        (2, map3 (fun r off n -> Walk (r, off, n))
              (int_range 0 2) (int_range 0 (1 lsl 16)) (int_range 2 12));
        (4, map2 (fun a dep -> Elsewhere (a, dep))
              (let lines base = map (fun k -> base + (k * 64)) (int_range 0 1023) in
               (* twice the L1, on the regions' sets, and around the
                  regions themselves: evictions and refills *)
               frequency [ (2, lines 0x1100_0000); (1, lines 0x0FFF_8000) ])
              bool);
      ]
  in
  let packet =
    pair (int_range 0 (Array.length sets - 1)) (list_size (int_range 0 25) op)
  in
  let+ packets = list_size (int_range 1 30) packet in
  { sets; packets }

(* Every line a region list's boundary visits, and the line after each
   region. *)
let region_addrs regions =
  List.concat_map
    (fun (base, size) ->
      let lines = max 0 ((size + Hw.Cost.line_size - 1) / Hw.Cost.line_size) in
      List.init (lines + 1) (fun k -> base + (k * Hw.Cost.line_size)))
    regions

let prop_boundary_matches_full_path =
  QCheck2.Test.make ~count:200
    ~name:"tracked DMA boundary agrees with the full remove/insert path"
    ~print:pp_dma_case dma_case_gen
    (fun c ->
      let m = Hw.Realistic.create () and r = Ref_realistic.create () in
      let outcome f =
        match f () with v -> Some v | exception Invalid_argument _ -> None
      in
      let same f g = outcome f = outcome g in
      let mem addr ~dependent =
        same
          (fun () -> Hw.Realistic.mem m ~addr ~write:false ~dependent)
          (fun () -> Ref_realistic.mem r ~addr ~dependent)
      in
      let addr_in regions ri off =
        let base, size = List.nth regions (ri mod List.length regions) in
        let line = Hw.Cost.line_size in
        base - line + (off mod (max 0 size + (2 * line)))
      in
      let step regions = function
        | Instr (kind, n) ->
            Hw.Realistic.instr m kind n;
            Ref_realistic.instr r kind n;
            true
        | Touch (ri, off, dependent) -> mem (addr_in regions ri off) ~dependent
        | Walk (ri, off, n) ->
            let a = addr_in regions ri off in
            List.for_all
              (fun k -> mem (a + (k * Hw.Cost.line_size)) ~dependent:true)
              (List.init n Fun.id)
        | Elsewhere (addr, dependent) -> mem addr ~dependent
      in
      let all_addrs = List.concat_map region_addrs (Array.to_list c.sets) in
      List.for_all
        (fun (set, ops) ->
          let regions = c.sets.(set) in
          same
            (fun () -> Hw.Realistic.packet_boundary m ~regions)
            (fun () -> Ref_realistic.packet_boundary r ~regions)
          && List.for_all (step regions) ops
          && Hw.Realistic.cycles m = Ref_realistic.cycles r
          && List.for_all
               (fun a ->
                 same
                   (fun () -> Hw.Realistic.probe m a)
                   (fun () -> Ref_realistic.probe r a))
               all_addrs)
        c.packets)

(* The conservative model keeps its own lazily allocated cold L1D; it must
   price every access exactly as a [Cache.l1d] hit or miss would, over
   addresses spanning three times the L1's capacity (so sets overflow and
   evict) and a few negative ones (both sides raise). *)
let prop_conservative_l1_matches_cache =
  let l1_bytes = 32 * 1024 in
  let addr =
    QCheck2.Gen.(
      frequency
        [
          (40, int_range 0 ((3 * l1_bytes) - 1));
          (1, int_range (-3 * Hw.Cost.line_size) (-1));
        ])
  in
  QCheck2.Test.make ~count:300
    ~name:"conservative L1 prices accesses as Cache.l1d"
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list_size (int_range 1 600) addr)
    (fun addrs ->
      let m = Hw.Conservative.create () and c = Hw.Cache.l1d () in
      List.for_all
        (fun a ->
          let outcome f =
            match f () with v -> Some v | exception Invalid_argument _ -> None
          in
          let before = Hw.Conservative.cycles m in
          let got =
            outcome (fun () ->
                Hw.Conservative.mem m ~addr:a ~write:false ~dependent:false;
                Hw.Conservative.cycles m - before)
          in
          let want =
            outcome (fun () ->
                if Hw.Cache.access c a then Hw.Cost.l1_hit_cycles
                else Hw.Cost.dram_cycles)
          in
          got = want)
        addrs)

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basic;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache remove/insert" `Quick test_cache_remove_insert;
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "conservative model" `Quick test_conservative;
    Alcotest.test_case "realistic warm hits" `Quick test_realistic_warm;
    Alcotest.test_case "realistic prefetcher" `Quick test_realistic_prefetch;
    Alcotest.test_case "realistic DMA boundary" `Quick test_realistic_boundary;
    Alcotest.test_case "conservative dominates realistic" `Quick
      test_conservative_exceeds_realistic;
    Alcotest.test_case "null model" `Quick test_null_model;
    Alcotest.test_case "dtlb penalty" `Quick test_tlb_penalty;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
      prop_cache_matches_reference;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |])
      prop_conservative_l1_matches_cache;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |])
      prop_boundary_matches_full_path;
    Alcotest.test_case "realistic cycles pinned" `Quick test_realistic_pinned;
    Alcotest.test_case "hot path allocates nothing" `Quick test_hot_path_alloc;
  ]
