open Farm_sim

(** The rules of membership as pure functions: §5.1's lease groups and
    §5.2's reconfiguration. [Lease] and [Cm] probe, sleep, call ZooKeeper
    and send messages, and apply what these rules return. *)

type lease_group = {
  grantor : int;  (** whom this machine renews with: its group leader, or the CM *)
  leads : bool;  (** leads a group: grants its members' leases *)
  watches : int list;  (** the machines whose leases this one checks *)
}

val lease_group : group_size:int -> Config.t -> int -> lease_group
(** A machine's place in the lease layout (§5.1). Group size 0 is flat:
    everyone renews with the CM, which watches all. Otherwise the members
    but the CM form groups of [group_size] in identifier order; each
    group's lowest member leads it and renews with the CM, which watches
    only the leaders. A non-member renews with the CM and watches nobody. *)

type view = {
  self : int;
  config : Config.t;  (** the configuration being replaced *)
  suspects : int list;
  retry : bool;  (** this attempt's previous probe round lacked a majority *)
}

type response =
  | Start  (** the CM: reconfigure now *)
  | Start_after of Time.t  (** a backup CM: reconfigure after this stagger, if nothing changed *)
  | Escalate of { backup : int option; wait : Time.t }
      (** report the CM to the first backup CM; reconfigure after [wait] if nothing changed *)
  | Report  (** report the suspects to the CM *)

val on_suspicion : self:int -> Config.t -> suspects:int list -> response
(** Step 1. When the CM is suspected, the backup CM of rank [i]
    ({!Config.backup_cms}) starts after [i] × 2 ms, and any other member
    escalates and waits [Params.backup_cm_timeout]. A non-CM suspecting a
    non-CM (a lease-group leader, a failed log append) reports. *)

val probe_targets : view -> int list
(** Step 2: every member but [self] and the suspects, in identifier order.
    After a round without a majority ([retry]), the suspects too
    (DESIGN.md deviation 12). *)

type round =
  | Retry of { cleared : int list }  (** no majority; these suspects answered *)
  | Propose of int list  (** the next configuration's members, sorted *)

val after_probe : view -> answered:int list -> round
(** Step 2: propose [self] and the machines that [answered] when they are
    a majority of the old configuration. *)

val moved_on : view -> zk_id:int -> bool
(** Step 3: ZooKeeper already holds a later configuration; adopt the
    winner's NEW-CONFIG. *)

val unacked_suspects : self:int -> int list -> int list
(** Step 7: after an ack timeout, the members that did not acknowledge
    NEW-CONFIG, minus [self], are the next suspects. *)

type remapped = {
  infos : (int * Wire.region_info) list;  (** each surviving region's new info *)
  fresh : (int * int) list;  (** (machine, region) replicas for data recovery *)
  lost : int list;  (** regions with no surviving replica *)
}

val remap :
  Placement.constraints -> (int, Wire.region_info) Hashtbl.t -> new_id:int -> remapped
(** Step 4: remap an owners table to the constraints' members, with every
    replacement chosen against the constraints' loads. Each list is in the
    reverse of the table's iteration order. *)
