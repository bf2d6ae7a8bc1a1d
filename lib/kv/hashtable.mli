open Farm_core

(** The FaRM hash table ([16]; all unordered indexes of §6.2).

    A fixed array of bucket objects, each holding [slots] fixed-size
    entries plus an overflow pointer to a chained bucket. Point lookups
    normally touch a single bucket object — one one-sided RDMA read on the
    lock-free path. Partitioned tables ([partitions] > 1) keep a key's
    bucket in its partition's regions; TPC-C uses this to co-partition its
    indexes by warehouse. *)

type t = {
  buckets : Addr.t array;
  regions : int array;
  ksize : int;
  vsize : int;
  slots : int;
  partitions : int;
  partition_of : Bytes.t -> int;
}

val create :
  Cluster.t ->
  regions:int array ->
  buckets:int ->
  ksize:int ->
  vsize:int ->
  ?slots:int ->
  ?partitions:int ->
  ?partition_of:(Bytes.t -> int) ->
  ?rows:(Bytes.t * Bytes.t) list ->
  unit ->
  t
(** Build the table on the cluster and return it once every bucket is
    committed. Keys shorter than [ksize] are zero-padded; values are
    truncated/padded to [vsize].

    Each region's buckets are allocated and written at the region's
    primary, where its free lists live, so the build makes no allocation
    RPCs. One process per primary machine runs, all at once
    ({!Cluster.run_on_all}), and builds that machine's regions in
    [regions] order: a region's buckets in ascending order, at most 64 per
    transaction, each transaction writing only that region. Every region
    therefore receives the allocation sequence that building the buckets
    in ascending order from one machine would give it. Simulated time
    advances by whole milliseconds, as with {!Cluster.run_on}.

    [rows] (default none) are the initial [(key, value)] rows. The table
    is created holding them in exactly the layout that an empty table
    followed by one {!insert} per row, in list order, would have: the
    same bucket per key, slots filled in insertion order, a later row
    with the same key replacing the earlier one's value in place, and a
    chained bucket in the head bucket's region each time [slots] entries
    fill. Only the bucket addresses differ. The transaction that allocates
    a head bucket also allocates and writes its filled chain, so rows cost
    no extra transactions; like every write, they reach the backups
    through the commit protocol. Without [rows], every bucket is written
    zeroed (all slots free). *)

val bucket_of : t -> Bytes.t -> int
val bucket_data_size : t -> int
val entry_size : t -> int

(** {1 Transactional operations} *)

val lookup : Txn.t -> t -> Bytes.t -> Bytes.t option
val insert : Txn.t -> t -> Bytes.t -> Bytes.t -> unit
(** Insert or update; allocates an overflow bucket (co-located with the
    head bucket) when the chain is full. *)

val delete : Txn.t -> t -> Bytes.t -> bool

(** {1 Lock-free lookups (§3)} *)

val lookup_lockfree : State.t -> t -> Bytes.t -> Bytes.t option
(** Optimized single-object read-only transaction: one RDMA read per
    (rarely chained) bucket, no commit phase. *)
