(* The value-level backend registry: each abstraction the NFs consume
   (LPM table, flow map, port allocator) lists its interchangeable
   implementations as first-class choices, and maps a choice to the
   ingredients an `Nf.Spec` needs — ds kind, contract recipe, fast-path
   eligibility, creation, and a memory-footprint model derived from the
   same layout constants the charged address arithmetic uses. *)

type lpm = [ `Dir24_8 | `Trie ]
type alloc = [ `Dll | `Array ]
type map = [ `Flow ]

module Lpm = struct
  type choice = lpm

  let all : choice list = [ `Dir24_8; `Trie ]
  let name = function `Dir24_8 -> "dir24_8" | `Trie -> "trie"

  let of_name = function
    | "dir24_8" -> `Dir24_8
    | "trie" -> `Trie
    | s -> invalid_arg ("Backends.Lpm.of_name: " ^ s)

  let kind = function `Dir24_8 -> Lpm_dir24_8.kind | `Trie -> Lpm_trie.kind

  let contract = function
    | `Dir24_8 -> Lpm_dir24_8.Recipe.contract
    | `Trie -> Lpm_trie.Recipe.contract

  type repr = Dir24_8 of Lpm_dir24_8.t | Trie of Lpm_trie.t
  type instance = { choice : choice; ds : Exec.Ds.t; repr : repr }

  let create choice ~base ~default_port =
    match choice with
    | `Dir24_8 ->
        let t = Lpm_dir24_8.create ~base ~default_port in
        { choice; ds = Lpm_dir24_8.to_ds t; repr = Dir24_8 t }
    | `Trie ->
        let t = Lpm_trie.create ~base ~default_port in
        { choice; ds = Lpm_trie.to_ds t; repr = Trie t }

  let add_route i ~prefix ~len ~port =
    match i.repr with
    | Dir24_8 t -> Lpm_dir24_8.add_route t ~prefix ~len ~port
    | Trie t -> Lpm_trie.add_route t ~prefix ~len ~port

  let footprint_bytes i =
    match i.repr with
    | Dir24_8 t -> Lpm_dir24_8.footprint_bytes t
    | Trie t -> Lpm_trie.footprint_bytes t
end

module Alloc = struct
  type choice = alloc

  let all : choice list = [ `Dll; `Array ]
  let name = function `Dll -> "dll" | `Array -> "array"

  let of_name = function
    | "dll" -> `Dll
    | "array" -> `Array
    | s -> invalid_arg ("Backends.Alloc.of_name: " ^ s)

  let create choice ~base ~port_lo ~port_hi =
    match choice with
    | `Dll -> Port_alloc.dll ~base ~port_lo ~port_hi
    | `Array -> Port_alloc.array ~base ~port_lo ~port_hi

  (* dll: a 16 B header word pair at base-16 plus one 16 B node per port;
     array: one bitmap word per 64 ports (word_addr = base + 8*w). *)
  let footprint_bytes choice ~ports =
    match choice with
    | `Dll -> 16 + (16 * ports)
    | `Array -> 8 * ((ports + 63) / 64)
end

module Flows = struct
  type choice = map

  let all : choice list = [ `Flow ]
  let name `Flow = "flow"

  let of_name = function
    | "flow" -> `Flow
    | s -> invalid_arg ("Backends.Flows.of_name: " ^ s)

  (* Hash_map: 8 B bucket heads at base, 64 B nodes at base + 8*buckets;
     Flow_table adds one 32 B meta record per entry. *)
  let footprint_bytes (`Flow : choice) ~capacity ~buckets =
    (8 * buckets) + (64 * capacity) + (32 * capacity)
end

(* NAT state = flow table + reverse ext-port array (8 B per port in the
   range) + the chosen allocator. *)
let nat_footprint_bytes ~(alloc : alloc) ~capacity ~buckets ~ports =
  Flows.footprint_bytes `Flow ~capacity ~buckets
  + (8 * ports)
  + Alloc.footprint_bytes alloc ~ports
