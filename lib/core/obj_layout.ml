(* On-NVRAM object layout.

   Every object starts with an 8-byte header word:
     bit 63          lock bit
     bit 62          allocation bit
     bits 0..61      version
   followed by the object's data bytes. Versions are used both for
   optimistic concurrency control and for replication (§3). *)

let header_size = 8

let lock_bit = Int64.shift_left 1L 63
let alloc_bit = Int64.shift_left 1L 62
let version_mask = Int64.sub alloc_bit 1L

let make ~locked ~allocated ~version =
  let v = Int64.logand (Int64.of_int version) version_mask in
  let v = if locked then Int64.logor v lock_bit else v in
  if allocated then Int64.logor v alloc_bit else v

let is_locked h = Int64.logand h lock_bit <> 0L
let is_allocated h = Int64.logand h alloc_bit <> 0L
let version h = Int64.to_int (Int64.logand h version_mask)

let with_locked h locked =
  if locked then Int64.logor h lock_bit else Int64.logand h (Int64.lognot lock_bit)

let with_allocated h allocated =
  if allocated then Int64.logor h alloc_bit else Int64.logand h (Int64.lognot alloc_bit)

let with_version h v =
  Int64.logor
    (Int64.logand h (Int64.lognot version_mask))
    (Int64.logand (Int64.of_int v) version_mask)

module Pagemem = Farm_nvram.Pagemem

let get mem ~off = Pagemem.get_int64_le mem off
let set mem ~off h = Pagemem.set_int64_le mem off h

(* Single-word compare-and-swap; atomic because the simulator executes each
   closure without preemption, as a real CAS instruction would be. *)
let cas mem ~off ~expected ~desired =
  if Int64.equal (get mem ~off) expected then begin
    set mem ~off desired;
    true
  end
  else false

let read_data mem ~off ~len = Pagemem.sub mem (off + header_size) len

let write_data mem ~off data =
  Pagemem.blit_from_bytes data 0 mem (off + header_size) (Bytes.length data)
