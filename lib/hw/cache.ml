(* The hot path is flat and int-typed on purpose: every helper below is
   annotated at [int] so that tag comparison is a machine compare rather
   than polymorphic [caml_equal], a way search returns -1 instead of an
   option, and power-of-two geometries index with shift/mask.  None of
   this is left to the optimiser: cross-module inlining (the default build
   has it, [--profile dev] does not) turns neither a polymorphic compare
   nor an option into a machine compare. *)

type t = {
  tags : int array;
      (** set [s] holds its line tags at [s * assoc ..], MRU first *)
  fill : int array;  (** number of valid ways per set *)
  set_count : int;
  assoc : int;
  set_mask : int;  (** [set_count - 1] when a power of two, else -1 *)
  mutable hits : int;
  mutable misses : int;
}

let line_size = Cost.line_size

let log2_exact n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n > 0 && n land (n - 1) = 0 then go 0 else -1

let line_shift =
  let k = log2_exact line_size in
  assert (k >= 0);
  k

(* Shifting only agrees with [/] on non-negative addresses; the others
   keep the division (and its truncation toward zero). *)
let line_of_addr (addr : int) : int =
  if addr >= 0 then addr lsr line_shift else addr / line_size

(* A negative line yields a negative set, which the bounds check on [fill]
   rejects, as indexing the set array always has. *)
let set_of t (line : int) : int =
  if line >= 0 && t.set_mask >= 0 then line land t.set_mask
  else line mod t.set_count

let create ~size_bytes ~assoc =
  let lines = size_bytes / line_size in
  if lines = 0 || lines mod assoc <> 0 then
    invalid_arg "Cache.create: size must be a multiple of assoc * line_size";
  let set_count = lines / assoc in
  {
    tags = Array.make (set_count * assoc) (-1);
    fill = Array.make set_count 0;
    set_count;
    assoc;
    set_mask = (if log2_exact set_count >= 0 then set_count - 1 else -1);
    hits = 0;
    misses = 0;
  }

let l1d () = create ~size_bytes:(32 * 1024) ~assoc:8
let l2 () = create ~size_bytes:(256 * 1024) ~assoc:8
let l3 () = create ~size_bytes:(2560 * 1024) ~assoc:20

(* Position of [tag] in [tags.(i .. stop - 1)], or -1. *)
let rec find_way (tags : int array) (i : int) (stop : int) (tag : int) : int =
  if i >= stop then -1
  else if tags.(i) = tag then i
  else find_way tags (i + 1) stop tag

(* Shift ways [base .. pos - 1] one step toward LRU and put [tag] in the
   MRU way [base]. *)
let move_to_front (tags : int array) (base : int) (pos : int) (tag : int) =
  for j = pos downto base + 1 do
    tags.(j) <- tags.(j - 1)
  done;
  tags.(base) <- tag

(* Fill [line] in set [s] as MRU, evicting the LRU way when the set is
   full; [i] is the line's position if already present, else -1. *)
let fill_line t (s : int) (i : int) (line : int) =
  let base = s * t.assoc in
  if i >= 0 then move_to_front t.tags base i line
  else begin
    let fill = t.fill.(s) in
    if fill < t.assoc then begin
      move_to_front t.tags base (base + fill) line;
      t.fill.(s) <- fill + 1
    end
    else move_to_front t.tags base (base + fill - 1) line
  end

let lookup t (s : int) (line : int) : int =
  let base = s * t.assoc in
  find_way t.tags base (base + t.fill.(s)) line

(* Most hits land in the MRU way, where a fill would change nothing: the
   way search and move-to-front run only when the MRU way holds another
   line.  [fill] is read first, as [lookup] does, so an empty way's -1 tag
   never matches and a negative set still raises. *)
let is_mru t (s : int) (line : int) =
  t.fill.(s) > 0 && Array.unsafe_get t.tags (s * t.assoc) = line

let insert_line t (line : int) =
  let s = set_of t line in
  if not (is_mru t s line) then fill_line t s (lookup t s line) line

let remove_line t (line : int) =
  let s = set_of t line in
  let i = lookup t s line in
  if i >= 0 then begin
    let fill = t.fill.(s) in
    let last = (s * t.assoc) + fill - 1 in
    for j = i to last - 1 do
      t.tags.(j) <- t.tags.(j + 1)
    done;
    t.tags.(last) <- -1;
    t.fill.(s) <- fill - 1
  end

let access_line t (line : int) =
  let s = set_of t line in
  if is_mru t s line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let i = lookup t s line in
    fill_line t s i line;
    if i >= 0 then begin
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      false
    end
  end

let access t addr = access_line t (line_of_addr addr)

let probe t addr =
  let line = line_of_addr addr in
  lookup t (set_of t line) line >= 0

let insert t addr = insert_line t (line_of_addr addr)
let remove t addr = remove_line t (line_of_addr addr)

(* Apply [f] to each line of the [size]-byte region at [base]; the lines
   are those of the addresses [base + k * line_size]. *)
let iter_range f t ~base ~size =
  let lines = (size + line_size - 1) / line_size in
  if base >= 0 then begin
    let first = base lsr line_shift in
    for line = first to first + lines - 1 do
      f t line
    done
  end
  else
    for k = 0 to lines - 1 do
      f t (line_of_addr (base + (k * line_size)))
    done

let insert_range t ~base ~size = iter_range insert_line t ~base ~size
let remove_range t ~base ~size = iter_range remove_line t ~base ~size

let stats t = (t.hits, t.misses)
