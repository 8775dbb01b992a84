type t = { data : bytes }

let create len =
  if len < 0 || len > 65535 then invalid_arg "Packet.create: bad length";
  { data = Bytes.make len '\000' }

let of_bytes b = { data = Bytes.copy b }
let to_bytes t = Bytes.copy t.data
let copy t = { data = Bytes.copy t.data }
let length t = Bytes.length t.data

let bounds_message t off width =
  Printf.sprintf "Packet: offset %d+%d out of bounds (len %d)" off width
    (Bytes.length t.data)

let check t off width =
  if off < 0 || off + width > Bytes.length t.data then
    invalid_arg (bounds_message t off width)

let fits t off width = off >= 0 && off + width <= Bytes.length t.data

(* One bounds check per access, at the full width, then unchecked byte
   accesses — the check already proved every byte in range.  The
   raising accessors' message (width included) is part of the
   stuck-message contract.  The [peek]/[poke] forms report an overrun
   in-band instead, for hot loops that raise their own error: loads
   return -1 (every field is non-negative), stores return [false] and
   leave the packet untouched.  Both families share the inlined field
   readers and writers below. *)
let byte t off = Char.code (Bytes.unsafe_get t.data off)
let put t off v = Bytes.unsafe_set t.data off (Char.unsafe_chr (v land 0xff))
let[@inline] read16 t off = (byte t off lsl 8) lor byte t (off + 1)

let[@inline] read32 t off =
  (byte t off lsl 24)
  lor (byte t (off + 1) lsl 16)
  lor (byte t (off + 2) lsl 8)
  lor byte t (off + 3)

let[@inline] read48 t off =
  (byte t off lsl 40)
  lor (byte t (off + 1) lsl 32)
  lor (byte t (off + 2) lsl 24)
  lor (byte t (off + 3) lsl 16)
  lor (byte t (off + 4) lsl 8)
  lor byte t (off + 5)

let[@inline] write16 t off v =
  put t off (v lsr 8);
  put t (off + 1) v

let[@inline] write32 t off v =
  put t off (v lsr 24);
  put t (off + 1) (v lsr 16);
  put t (off + 2) (v lsr 8);
  put t (off + 3) v

let[@inline] write48 t off v =
  put t off (v lsr 40);
  put t (off + 1) (v lsr 32);
  put t (off + 2) (v lsr 24);
  put t (off + 3) (v lsr 16);
  put t (off + 4) (v lsr 8);
  put t (off + 5) v

let get_u8 t off =
  check t off 1;
  byte t off

let get_u16 t off =
  check t off 2;
  read16 t off

let get_u32 t off =
  check t off 4;
  read32 t off

let get_u48 t off =
  check t off 6;
  read48 t off

let set_u8 t off v =
  check t off 1;
  put t off v

let set_u16 t off v =
  check t off 2;
  write16 t off v

let set_u32 t off v =
  check t off 4;
  write32 t off v

let set_u48 t off v =
  check t off 6;
  write48 t off v

let peek_u8 t off = if fits t off 1 then byte t off else -1
let peek_u16 t off = if fits t off 2 then read16 t off else -1
let peek_u32 t off = if fits t off 4 then read32 t off else -1
let peek_u48 t off = if fits t off 6 then read48 t off else -1

let poke_u8 t off v =
  fits t off 1
  && begin
       put t off v;
       true
     end

let poke_u16 t off v =
  fits t off 2
  && begin
       write16 t off v;
       true
     end

let poke_u32 t off v =
  fits t off 4
  && begin
       write32 t off v;
       true
     end

let poke_u48 t off v =
  fits t off 6
  && begin
       write48 t off v;
       true
     end

(* The one width dispatch: every consumer of IR packet accesses — the
   concrete evaluator domain, witness construction, tests — goes
   through these, so W48 masking and bounds behaviour exist once. *)
let get t (width : Ir.Expr.width) off =
  match width with
  | Ir.Expr.W8 -> get_u8 t off
  | Ir.Expr.W16 -> get_u16 t off
  | Ir.Expr.W32 -> get_u32 t off
  | Ir.Expr.W48 -> get_u48 t off

let set t (width : Ir.Expr.width) off v =
  match width with
  | Ir.Expr.W8 -> set_u8 t off v
  | Ir.Expr.W16 -> set_u16 t off v
  | Ir.Expr.W32 -> set_u32 t off v
  | Ir.Expr.W48 -> set_u48 t off v

let blit_string s t off =
  check t off (String.length s);
  Bytes.blit_string s 0 t.data off (String.length s)

let equal a b = Bytes.equal a.data b.data

let pp_hex ppf t =
  Bytes.iteri
    (fun i c ->
      if i > 0 && i mod 16 = 0 then Fmt.pf ppf "@\n";
      Fmt.pf ppf "%02x " (Char.code c))
    t.data
