
(** The configuration manager (§3, §5.2).

    The CM allocates regions (a centralized two-phase prepare/commit that
    enforces failure-domain, capacity and locality constraints) and drives
    the seven-step reconfiguration protocol — probe, Zookeeper CAS, remap,
    NEW-CONFIG, ACK collection, NEW-CONFIG-COMMIT. The coordination service
    is touched exactly once per configuration change (vertical Paxos). *)

(** {1 Region allocation} *)

val handle_alloc_region :
  State.t -> reply:(bytes:int -> Wire.message -> unit) -> locality:int option -> unit

val handle_prepare_region :
  State.t -> reply:(bytes:int -> Wire.message -> unit) -> Wire.region_info -> unit

val handle_commit_region : State.t -> Wire.region_info -> unit
val handle_fetch_mapping : State.t -> reply:(bytes:int -> Wire.message -> unit) -> rid:int -> unit

(** {1 Reconfiguration} *)

val replica_roles : State.t -> (int * State.role) list
(** A machine's replicas and roles, in the reverse of its table's order. *)

val claims :
  (int * (int * State.role) list) list -> (int, int option * int list) Hashtbl.t
(** Each region's claimed primary and sorted backups, from machines'
    (region, role) pairs visited in order: the region-map rebuild of a new
    CM's probe results and of a whole-cluster power cycle. *)

val handle_suspicion : State.t -> int list -> unit
(** Record suspicions (lease expiries, failed log appends, SUSPECT
    messages) and act on {!Reconfig.on_suspicion}. *)

(** {1 Recovery bookkeeping at the CM} *)

val on_regions_active : State.t -> src:int -> unit
(** Collect REGIONS-ACTIVE; broadcast ALL-REGIONS-ACTIVE when every member
    reported (§5.4). *)

val on_region_recovered : State.t -> rid:int -> unit
