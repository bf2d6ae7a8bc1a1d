(** Per-replica version chains for the snapshot protocol.

    Region memory always holds the newest committed version of every
    object ({!Obj_layout}); this side structure archives the versions a
    snapshot read below the head's commit timestamp still needs. Each
    node holds an exact-size copy of its value, and old versions are
    truncated against the cluster low-watermark, below which no snapshot
    can ever read again; the GC reclaims the truncated nodes. *)

type t

val create : floor:int -> t
(** [floor] is the timestamp below which history is absent: snapshot
    reads strictly below it must abort (retry at a fresh, higher
    read-timestamp). A replica that existed since the epoch starts at 0;
    a freshly re-replicated backup starts at its creation instant's
    clock bound. *)

val floor : t -> int
val raise_floor : t -> int -> unit

val head_ts : t -> off:int -> int
(** Commit timestamp of the version currently installed in region memory
    at [off]; 0 when never written under the snapshot protocol. *)

val set_head_ts : t -> off:int -> int -> unit

val archive : t -> off:int -> version:int -> ts:int -> allocated:bool -> Bytes.t -> unit
(** Record a superseded version. Inserts keep the chain sorted by
    version (newest first) and drop duplicates, so out-of-order
    applications at backups — where truncation order can invert per
    object — are safe. Keeps a private copy of the value. *)

val find : t -> off:int -> ts:int -> (int * Bytes.t * bool) option
(** Newest archived version with commit timestamp [<= ts]:
    [(version, value copy, allocated)]: the caller owns the copy, so
    writing to it leaves the chain unchanged. [None] when the chain holds
    nothing that old (caller decides between "object did not exist yet"
    and "truncated" via {!floor}). *)

val trim : t -> wm:int -> int
(** Truncate history no snapshot at or above the watermark can read:
    per chain, keep every node with [ts >= wm] plus the newest older
    one, drop the rest, and raise the floor to [wm]. Returns the number
    of nodes dropped. No-op (0) when [wm <= floor]. *)

val nodes_live : t -> int
(** Archived node count, for gauges and tests. *)
