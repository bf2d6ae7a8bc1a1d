(** The FaRM object allocator (§3, §5.5).

    Regions are split into blocks used as slabs for small objects. A slot
    holds the object's header and data, rounded up to a multiple of 16
    bytes, so no object pads by more than 15 bytes. Block headers — the
    object size used in a block — are replicated to the backups when a
    block is carved, because data recovery needs them; slab free lists
    live only at the primary and are rebuilt by a paced scan of the
    region's allocation bits after a promotion. Allocations are tentative
    until commit sets the allocation bit, so crashes and aborts leak
    nothing. *)

val slot_size : int -> int
(** [slot_size data_size]: the slot of an object with [data_size] bytes of
    data, [Obj_layout.header_size + data_size] rounded up to a multiple of
    16. A block holds [Params.block_size / slot] slots; the remainder at
    its end stays unused. *)

val alloc_obj_local : State.t -> State.replica -> size:int -> (Addr.t * int) option
(** Pop a free slot (carving a fresh block when empty); returns the address
    and current version (the LOCK CAS target). Works even while free lists
    are being rebuilt — every listed offset is individually sound. [None]
    when the region is full. *)

val release_slot : State.replica -> off:int -> unit
(** Return a slot (committed free, or abort-return via FREE hint). *)

val recover_free_lists : State.t -> State.replica -> on_done:(unit -> unit) -> unit
(** §5.5: rebuild the slab free lists on a new primary by scanning
    allocation bits, [alloc_scan_batch] objects every
    [alloc_scan_interval], after ALL-REGIONS-ACTIVE. *)

val sync_block_headers : State.t -> State.replica -> unit
(** A new primary resends block headers to all backups right after
    NEW-CONFIG-COMMIT (the old primary may have died mid-replication). *)
