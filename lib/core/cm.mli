
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

val claim :
  (int, int option * int list) Hashtbl.t -> machine:int -> int -> State.role -> unit
(** [claim claims ~machine rid role] notes that [machine] holds a [role]
    replica of region [rid] in a table of each region's (primary, backups):
    the region-map rebuild step shared by a new CM's probe results and a
    whole-cluster power cycle. *)

type probe_result = {
  pr_machine : int;
  pr_replicas : (int * State.role) list;
  pr_infos : (int * int * int) list;
}

val handle_suspicion : State.t -> int list -> unit
(** Entry point for suspicions (lease expiries, failed probes, SUSPECT
    messages). Runs the backup-CM election dance when the CM itself is the
    suspect, then drives the reconfiguration (§5.2). *)

(** {1 Recovery bookkeeping at the CM} *)

val on_regions_active : State.t -> src:int -> unit
(** Collect REGIONS-ACTIVE; broadcast ALL-REGIONS-ACTIVE when every member
    reported (§5.4). *)

val on_region_recovered : State.t -> rid:int -> unit
