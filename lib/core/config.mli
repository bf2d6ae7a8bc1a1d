(** Configurations [<i, S, F, CM>] (§3): a unique monotonically increasing
    identifier, the member set, the failure-domain mapping, and the
    configuration manager. Stored in the Zookeeper-equivalent and advanced
    with one atomic compare-and-swap per change (vertical Paxos). *)

type t = {
  id : int;
  members : int list;  (** sorted, duplicate-free *)
  domains : (int * int) list;  (** machine -> failure domain *)
  cm : int;
}

val make : id:int -> members:int list -> domains:(int * int) list -> cm:int -> t
(** Raises [Invalid_argument] if [cm] is not a member. *)

val is_member : t -> int -> bool
val domain_of : t -> int -> int
val size : t -> int

val backup_cms : t -> k:int -> int list
(** The [k] machines that act as backup CMs: the CM's successors on the
    identifier ring (§5.2 step 1). *)

val recovery_coordinator : t -> Txid.t -> int
(** Deterministic (consistent-hash) coordinator assignment for recovering
    transactions whose original coordinator left the configuration (§5.3
    step 6): all primaries independently agree on it. *)
