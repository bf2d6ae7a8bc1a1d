(* Global addresses: a region identifier plus a byte offset of the object's
   header within the region. *)

type t = { region : int; offset : int }

let make ~region ~offset = { region; offset }

let compare a b =
  let c = Int.compare a.region b.region in
  if c <> 0 then c else Int.compare a.offset b.offset

let equal a b = a.region = b.region && a.offset = b.offset

(* One int: the region above bit 32, the offset below. Offsets fit in 32
   bits and regions in 30, so packed keys order exactly as [compare]. *)
let pack a = (a.region lsl 32) lor (a.offset land 0xFFFFFFFF)
let packed_region k = k lsr 32
let packed_offset k = k land 0xFFFFFFFF
let unpack k = { region = packed_region k; offset = packed_offset k }

let pp ppf t = Fmt.pf ppf "r%d+%#x" t.region t.offset
