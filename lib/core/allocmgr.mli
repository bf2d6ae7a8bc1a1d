(** The FaRM object allocator (§3, §5.5).

    Regions are split into blocks used as slabs for small objects (slot
    sizes are powers of two). Block headers — the object size used in a
    block — are replicated to the backups when a block is carved, because
    data recovery needs them; slab free lists live only at the primary and
    are rebuilt by a paced scan of the region's allocation bits after a
    promotion. Allocations are tentative until commit sets the allocation
    bit, so crashes and aborts leak nothing. *)

val slot_size : int -> int
(** Slot (header + data, next power of two, >= 16) for a data size. *)

val blocks_per_region : State.t -> int

val push_free : State.replica -> slot:int -> off:int -> unit
(** Idempotent free-list push: the membership mirror guarantees an offset
    is listed at most once even when an abort-return races the recovery
    scan — handing one slot to two transactions corrupts whichever commits
    second. *)

val alloc_obj_local : State.t -> State.replica -> size:int -> (Addr.t * int) option
(** Pop a free slot (carving a fresh block when empty); returns the address
    and current version (the LOCK CAS target). Works even while free lists
    are being rebuilt — every listed offset is individually sound. [None]
    when the region is full. *)

val release_slot : State.t -> State.replica -> off:int -> unit
(** Return a slot (committed free, or abort-return via FREE hint). *)

val alloc_block : State.t -> State.replica -> slot:int -> bool
(** Carve a fresh block and replicate its header to the backups. *)

val recover_free_lists : State.t -> State.replica -> on_done:(unit -> unit) -> unit
(** §5.5: rebuild the slab free lists on a new primary by scanning
    allocation bits, [alloc_scan_batch] objects every
    [alloc_scan_interval], after ALL-REGIONS-ACTIVE. *)

val sync_block_headers : State.t -> State.replica -> unit
(** A new primary resends block headers to all backups right after
    NEW-CONFIG-COMMIT (the old primary may have died mid-replication). *)
