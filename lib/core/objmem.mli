(** Object memory operations on region replicas: version-checked locking
    (LOCK processing), exact-lock release, idempotent committed-write
    installation, recovery locking, and validation reads (§4, §5.3). *)

val header : State.replica -> off:int -> int64
val read_object : State.replica -> off:int -> len:int -> int64 * Bytes.t

val try_lock : State.replica -> Wire.write_item -> bool
(** Lock iff unlocked and still at the version the transaction observed. *)

val unlock : State.replica -> Wire.write_item -> unit
(** Release only a lock taken at this write's version — callers must own
    it (see [State.locks_held]). *)

val install : ?ts:int -> State.t -> State.replica -> Wire.write_item -> unit
(** Install a committed write at a replica (§4 steps 4-5, §5.3 step 7):
    value, version+1, the allocation bit the write implies, unlocked.
    Idempotent: a replica already past this write keeps its header.

    Snapshot protocol: the superseded head is archived in the replica's
    version chain, and a stale (skipped) write is archived under its own
    timestamp — backups can apply truncations out of per-object order. The
    write's commit timestamp is [w.ts], or [ts], or the head's timestamp
    + 1 when both are 0 (recovery evidence from a LOCK record, which
    predates timestamp assignment); in that last case the chain floor
    rises past every read timestamp drawn so far ({!floor_past_reads}).

    The first application of a free ([Alloc_clear]) at a primary returns
    the slot to the region's slab. *)

val floor_past_reads : State.t -> State.replica -> unit
(** Snapshot protocol: raise the replica's chain floor above every read
    timestamp any machine has drawn so far; no-op without a chain. *)

(** Outcome of a snapshot read at a given read timestamp. *)
type snap_read =
  | Snap_value of { version : int; value : Bytes.t; allocated : bool; from_chain : bool }
      (** the newest version with commit timestamp [<= ts] *)
  | Snap_locked
      (** the head is inside the snapshot but locked: a write with an
          as-yet-unknown timestamp (possibly [<= ts]) is about to land —
          wait briefly and retry *)
  | Snap_none  (** no version that old: the object did not exist yet *)
  | Snap_below_floor
      (** the chain has been truncated past [ts] (or this replica was
          created after it): retry at a fresh read timestamp *)

val read_snapshot : State.replica -> off:int -> len:int -> ts:int -> snap_read
(** Snapshot protocol only; raises [Invalid_argument] on a chain-less
    replica. *)

val recovery_lock : State.replica -> Wire.write_item -> bool
(** §5.3 step 4: lock if still at the observed version; true when this
    transaction holds the lock afterwards. *)

val validate_version : State.replica -> off:int -> version:int -> bool
