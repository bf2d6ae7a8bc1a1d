open Farm_sim

type protocol = Validate_at_commit | Snapshot

type t = {
  (* memory layout *)
  region_size : int;
  block_size : int;
  log_size : int;
  regions_per_machine_cap : int;
  (* replication *)
  replication : int;
  (* transactions *)
  protocol : protocol;
  validate_rpc_threshold : int;
  commit_log_bytes : int;
  doorbell_batching : bool;
  arena_reuse : bool;
  (* global time (snapshot protocol only) *)
  clock_eps : Time.t;
  wm_interval : Time.t;
  park_timeout : Time.t;
  (* leases (§5.1) *)
  lease_duration : Time.t;
  lease_renew_divisor : int;
  lease_check_interval : Time.t;
  (* recovery (§5.2-5.5) *)
  vote_timeout : Time.t;
  recovery_block : int;
  recovery_interval : Time.t;
  recovery_concurrency : int;
  alloc_scan_batch : int;
  alloc_scan_interval : Time.t;
  backup_cms : int;
  backup_cm_timeout : Time.t;
  incremental_cm_state : bool;
  lease_group_size : int;
  reconfig_ack_timeout : Time.t;
  truncate_flush_interval : Time.t;
  (* CPU cost model *)
  threads_per_machine : int;
  cpu_tx_begin : Time.t;
  cpu_local_read : Time.t;
  cpu_lock_per_obj : Time.t;
  cpu_commit_per_obj : Time.t;
  cpu_truncate_per_obj : Time.t;
  cpu_validate_per_obj : Time.t;
  cpu_log_poll : Time.t;
  cpu_recovery_per_tx : Time.t;
  cpu_reconfig_fixed : Time.t;
  cpu_cm_rebuild : Time.t;
  net : Farm_net.Params.t;
}

(* Defaults are scaled for simulation speed: regions are 1 MB rather than
   2 GB and machines run 4-8 worker threads rather than 30, but every ratio
   that shapes the paper's figures (lease/renewal, pacing intervals, the
   tr=4 validation threshold, f+1=3 replication) keeps its paper value. *)
let default =
  {
    region_size = 1 lsl 20;
    block_size = 16 * 1024;
    log_size = 1 lsl 21;
    regions_per_machine_cap = 512;
    replication = 3;
    protocol = Validate_at_commit;
    validate_rpc_threshold = 4;
    commit_log_bytes = 64;
    doorbell_batching = true;
    arena_reuse = true;
    clock_eps = Time.us 5;
    wm_interval = Time.us 500;
    park_timeout = Time.ms 10;
    lease_duration = Time.ms 10;
    lease_renew_divisor = 5;
    lease_check_interval = Time.us 500;
    vote_timeout = Time.us 250;
    recovery_block = 8 * 1024;
    recovery_interval = Time.ms 2;
    recovery_concurrency = 1;
    alloc_scan_batch = 100;
    alloc_scan_interval = Time.us 100;
    backup_cms = 2;
    backup_cm_timeout = Time.ms 30;
    incremental_cm_state = false;
    lease_group_size = 0;
    reconfig_ack_timeout = Time.ms 20;
    truncate_flush_interval = Time.ms 2;
    threads_per_machine = 8;
    cpu_tx_begin = Time.ns 300;
    cpu_local_read = Time.ns 400;
    cpu_lock_per_obj = Time.ns 500;
    cpu_commit_per_obj = Time.ns 600;
    cpu_truncate_per_obj = Time.ns 300;
    cpu_validate_per_obj = Time.ns 300;
    cpu_log_poll = Time.ns 400;
    cpu_recovery_per_tx = Time.us 2;
    cpu_reconfig_fixed = Time.ms 1;
    cpu_cm_rebuild = Time.ms 60;
    net = Farm_net.Params.default;
  }
