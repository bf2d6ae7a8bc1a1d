open Farm_core

(* Byte-level encoding helpers shared by the FaRM data structures. *)

let get_i64 b off = Bytes.get_int64_le b off
let set_i64 b off v = Bytes.set_int64_le b off v

let get_int b off = Int64.to_int (get_i64 b off)
let set_int b off v = set_i64 b off (Int64.of_int v)

(* Addresses packed into one word: region in the high 31 bits, offset in
   the low 32. Region ids start at 1, so 0 encodes "null". *)
let null_addr = 0

let encode_addr = Addr.pack
let decode_addr v = if v = 0 then None else Some (Addr.unpack v)

let get_addr b off = decode_addr (get_int b off)

let set_addr b off = function
  | None -> set_int b off null_addr
  | Some a -> set_int b off (encode_addr a)

(* 64-bit FNV-1a over a byte key; used for hash-table bucket selection. *)
let fnv1a (key : Bytes.t) =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length key - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get key i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)
