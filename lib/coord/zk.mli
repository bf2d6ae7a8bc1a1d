open Farm_sim

(** Zookeeper-equivalent coordination service.

    FaRM uses Zookeeper purely as the vertical-Paxos configuration store:
    one atomic compare-and-swap per configuration change, keyed on a znode
    sequence number (§5.2 step 3). This module provides exactly that — a
    majority-quorum replicated register with CAS — over simulated replicas
    that can be killed to test loss of quorum. It is deliberately not used
    for lease management, failure detection, or recovery coordination,
    matching the paper. *)

type 'v t

type error = [ `No_quorum | `Conflict of int ]

val create : Engine.t -> rng:Rng.t -> replicas:int -> 'v t

val has_quorum : 'v t -> bool
val kill_replica : 'v t -> int -> unit
val revive_replica : 'v t -> int -> unit

val bootstrap_read : 'v t -> (int * 'v) option
(** Synchronous quorum read for the harness (no process context). *)

val bootstrap_cas : 'v t -> expected_seq:int -> 'v -> (int, error) result
(** Synchronous CAS for the harness (full-cluster restart). *)

val bootstrap : 'v t -> 'v -> int
(** Install an initial value synchronously (no simulated round trip);
    returns the initial sequence number. For harness bootstrap only. *)

val read : 'v t -> (int * 'v) option
(** Blocking quorum read of [(seq, value)]; [None] when no value has been
    stored yet or quorum is lost. Must run inside a process. *)

val compare_and_swap : 'v t -> expected_seq:int -> 'v -> (int, error) result
(** Atomically install [value] if the stored sequence number still equals
    [expected_seq]; returns the new sequence number. At most one of any set
    of concurrent proposers with the same [expected_seq] succeeds. *)
