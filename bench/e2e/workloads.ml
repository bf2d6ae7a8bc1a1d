open Farm_sim
open Farm_core
open Farm_workloads

(* The four workloads. Each is a cluster shape plus a [load] step that
   builds the database on a fresh cluster and returns the closed-loop
   operation, the hooks run around [Driver.run], and the workload's own
   correctness checks. Everything random is drawn from the cluster's seed,
   so a seed fixes the inputs. *)

type instance = {
  op : Driver.worker_ctx -> bool;
  arm : start:Time.t -> stop:Time.t -> unit;
      (** called right before [Driver.run] measures from [start] to [stop]
          (sim time, warm-up included): schedules faults and samplers *)
  settle : unit -> unit;
      (** called right after [Driver.run]: drives background work the
          workload waits for (data re-replication after a kill) *)
  check : unit -> string list;  (** after quiesce: the checks that failed *)
}

type t = {
  name : string;
  machines : int;
  params : Params.t;
  workers : int;  (** closed-loop workers per machine *)
  warmup : Time.t;
  window : Time.t;  (** measured simulated time after the warm-up *)
  setup_reps : int;  (** set-ups per repetition; the median is reported *)
  load : Cluster.t -> instance;
}

let no_arm ~start:_ ~stop:_ = ()
let no_settle () = ()

(* 128 KB regions and 1 MB logs keep a 90-machine fleet within a few
   hundred MB of host heap (the sizes the engine-scaling sweep uses). *)
let small_memory p = { p with Params.region_size = 1 lsl 17; log_size = 1 lsl 20 }

(* {1 TATP at 90 machines}

   Paper scale and read-mostly (70% single-row lock-free lookups): the
   engine, with a deep event heap of 90 machines' lease and NIC processes,
   and the fabric do most of the work; the commit protocol does little.
   100 subscribers per machine and 30 regions per table keep set-up near
   2 s. Every machine starts with an empty region-mapping cache and fills
   it from the CM, which takes about 3 ms of the 4 ms warm-up. *)

let tatp_load ~subscribers ~regions_per_table c =
  let t = Tatp.create c ~subscribers ~regions_per_table in
  Tatp.load c t;
  t

let tatp_90 =
  {
    name = "tatp_90";
    machines = 90;
    params = small_memory Params.default;
    workers = 4;
    warmup = Time.ms 4;
    window = Time.ms 3;
    setup_reps = 1;
    load =
      (fun c ->
        let t = tatp_load ~subscribers:9_000 ~regions_per_table:30 c in
        { op = Tatp.op t; arm = no_arm; settle = no_settle; check = (fun () -> []) });
  }

(* {1 TPC-C at 8 machines}

   Write-heavy and contended, mostly local multi-object transactions:
   commit, log, locks, the B-trees and allocation dominate, on a small
   cluster with a shallow event heap. *)

let tpcc_8 =
  {
    name = "tpcc_8";
    machines = 8;
    params = Params.default;
    workers = 4;
    warmup = Time.ms 2;
    window = Time.ms 60;
    setup_reps = 1;
    load =
      (fun c ->
        let scale = { Tpcc.warehouses = 16; districts = 10; customers = 12; items = 100 } in
        let t = Tpcc.create c ~scale () in
        Tpcc.load c t;
        let check () =
          (if Tpcc.check_ytd c t then [] else [ "tpcc: W_YTD <> sum of D_YTD" ])
          @ if Tpcc.check_orders c t then [] else [ "tpcc: orders not dense per district" ]
        in
        { op = Tpcc.op t; arm = no_arm; settle = no_settle; check });
  }

(* {1 YCSB-B on the snapshot protocol}

   A contended zipfian set of 8-byte cells: 95% four-cell read-only
   transactions, which commit locally from version chains, and 5% two-cell
   read-modify-writes, which lock, validate and commit-wait. The commit
   layer through its other path, with little engine and fabric work per
   op. Set-up takes milliseconds, so each repetition sets up 9 times. *)

let ycsb_cells = 256
let ycsb_regions = 4

let ycsb_b_snapshot =
  {
    name = "ycsb_b_snapshot";
    machines = 6;
    params = { Params.default with Params.protocol = Params.Snapshot };
    workers = 8;
    warmup = Time.ms 2;
    window = Time.ms 50;
    setup_reps = 9;
    load =
      (fun c ->
        let rs = Array.init ycsb_regions (fun _ -> Cluster.alloc_region_exn c) in
        let cells =
          Cluster.run_on c ~machine:0 (fun st ->
              match
                Api.run_retry st ~thread:0 (fun tx ->
                    Array.init ycsb_cells (fun i ->
                        let a =
                          Txn.alloc tx ~size:8 ~region:rs.(i mod ycsb_regions).Wire.rid ()
                        in
                        Txn.write tx a (Bytes.make 8 '\000');
                        a))
              with
              | Ok cells -> cells
              | Error e -> Fmt.failwith "ycsb_b_snapshot: load failed: %a" Txn.pp_abort e)
        in
        let ro_aborts = ref 0 in
        let op (ctx : Driver.worker_ctx) =
          let rng = ctx.Driver.rng in
          let read_only = Rng.int rng 100 >= 5 in
          let ok =
            match
              Api.run ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
                  if read_only then
                    for _ = 1 to 4 do
                      ignore (Txn.read tx cells.(Ycsb.zipf rng ycsb_cells) ~len:8)
                    done
                  else
                    for _ = 1 to 2 do
                      let a = cells.(Ycsb.zipf rng ycsb_cells) in
                      let v = Bytes.get_int64_le (Txn.read tx a ~len:8) 0 in
                      let b = Bytes.create 8 in
                      Bytes.set_int64_le b 0 (Int64.succ v);
                      Txn.write tx a b
                    done)
            with
            | Ok () -> true
            | Error _ -> false
          in
          if read_only && not ok then incr ro_aborts;
          ok
        in
        let check () =
          let validates =
            match List.assoc_opt "validate" (Cluster.merged_phase_hists c) with
            | Some h -> Stats.Hist.count h
            | None -> 0
          in
          (if !ro_aborts = 0 then []
           else [ Printf.sprintf "ycsb_b_snapshot: %d read-only aborts" !ro_aborts ])
          @
          if validates = 0 then []
          else [ Printf.sprintf "ycsb_b_snapshot: %d validate phases" validates ]
        in
        { op; arm = no_arm; settle = no_settle; check });
  }

(* {1 TATP with a machine killed mid-run}

   Failure detection, CM reconfiguration, log drain, lock recovery,
   vote/decide and data re-replication do the work, measured against the
   steady state before the kill (5 ms leases, as the failure figures). *)

(* The victim: the lowest-numbered machine, other than the CM, that holds
   no replica of a region the CM is primary of. Killing a backup of a
   CM-primaried region under load can leave its new backup one version
   behind the primary (a transaction in flight at the kill is decided just
   after data recovery copied the object, and the decided write never
   reaches the new backup), which the invariant check rightly rejects; this
   workload measures recovery, so it avoids that known defect. *)
let victim c =
  let cm = (Cluster.machine c 0).State.config.Config.cm in
  let cm_regions =
    Hashtbl.fold
      (fun rid (r : State.replica) acc -> if r.State.role = State.Primary then rid :: acc else acc)
      (Cluster.machine c cm).State.nv.State.replicas []
  in
  let near = List.concat_map (fun rid -> List.map fst (Cluster.replicas_of c rid)) cm_regions in
  let n = Cluster.n_machines c in
  match List.find_opt (fun m -> m <> cm && not (List.mem m near)) (List.init n Fun.id) with
  | Some m -> m
  | None -> (cm + 1) mod n

(* Commits per sampling interval, summed over the machines alive now:
   every machine's sampler ticks at the same instants. Leaving out the dead
   machine compares the survivors before and after the kill, since the
   victim's own workers never come back. *)
let survivor_commits c =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (st : State.t) ->
      let tl = Farm_obs.Obs.timeline st.State.obs in
      match List.find_index (( = ) "commits") (Farm_obs.Timeline.series_names tl) with
      | Some i when st.State.alive ->
          List.iter
            (fun (t, vals) ->
              let prev = Option.value ~default:0 (Hashtbl.find_opt tbl t) in
              Hashtbl.replace tbl t (prev + vals.(i)))
            (Farm_obs.Timeline.rows tl)
      | _ -> ())
    c.Cluster.machines;
  List.sort compare (Hashtbl.fold (fun t v acc -> (t, v) :: acc) tbl [])

(* Recovery as seen from outside, relative to the first kill at or after
   [from]: each milestone's delay in ms, and the time until a sampled 1 ms
   bin regains 90% of the survivors' mean commit rate over the 20 ms before
   the kill (integer arithmetic). [None] without a kill. *)
type recovery = { since : string -> float option; to90_ms : float option }

let recovery c ~from =
  let ms = Cluster.milestones c in
  let first tag ~after =
    List.find_map (fun (tg, _, at) -> if tg = tag && Time.( >= ) at after then Some at else None) ms
  in
  match first "killed" ~after:from with
  | None -> None
  | Some kill ->
      let kill_ns = Time.to_ns kill in
      let rows = survivor_commits c in
      let pre = List.filter (fun (t, _) -> t <= kill_ns && t > kill_ns - 20_000_000) rows in
      let pre_sum = List.fold_left (fun a (_, v) -> a + v) 0 pre in
      let pre_bins = List.length pre in
      let to90_ms =
        if pre_sum = 0 then None
        else
          List.find_map
            (fun (t, v) ->
              if t > kill_ns && v * 10 * pre_bins >= pre_sum * 9 then
                Some (float_of_int (t - kill_ns) /. 1e6)
              else None)
            rows
      in
      let since tag =
        Option.map (fun at -> Time.to_ms_float (Time.sub at kill)) (first tag ~after:kill)
      in
      Some { since; to90_ms }

let data_rec_limit = Time.ms 300

let tatp_kill =
  {
    name = "tatp_kill";
    machines = 18;
    params = { (small_memory Params.default) with Params.lease_duration = Time.ms 5 };
    workers = 4;
    warmup = Time.ms 2;
    window = Time.ms 32;
    setup_reps = 1;
    load =
      (fun c ->
        let t = tatp_load ~subscribers:9_000 ~regions_per_table:18 c in
        let start = ref Time.zero in
        let arm ~start:s ~stop =
          start := s;
          Cluster.start_sampling c ~until:(Time.add stop data_rec_limit);
          (* After 20 ms of steady state past the warm-up, the victim dies
             the moment another machine is about to LOCK objects it is
             primary of. That LOCK append fails and raises the suspicion;
             a kill at a fixed instant is found either that way or, when no
             commit happens to be in flight to the victim, only by lease
             expiry 4 ms later, and seeds would split between the two. *)
          let v = victim c and after = Time.add s (Time.ms 22) in
          let locks_victim (st : State.t) txid =
            match Txid.Tbl.find_opt st.State.active_txs txid with
            | Some lt ->
                List.exists (fun rid -> State.primary_of st rid = Some v) lt.State.lt_written_regions
            | None -> false
          in
          Array.iter
            (fun (st : State.t) ->
              st.State.phase_hook <-
                Some
                  (fun phase txid ->
                    if
                      phase = State.Before_lock
                      && st.State.id <> v
                      && Time.( >= ) (Cluster.now c) after
                      && locks_victim st txid
                    then begin
                      Array.iter (fun (m : State.t) -> m.State.phase_hook <- None) c.Cluster.machines;
                      Cluster.kill c v
                    end))
            c.Cluster.machines
        in
        let rec_done () =
          match recovery c ~from:!start with Some r -> r.since "data-rec-done" <> None | None -> false
        in
        let settle () =
          let deadline = Time.add (Cluster.now c) data_rec_limit in
          while
            (not (rec_done ()))
            && Time.( < ) (Cluster.now c) deadline
            && Engine.pending c.Cluster.engine > 0
          do
            Cluster.run_for c ~d:(Time.ms 10)
          done
        in
        let check () =
          match recovery c ~from:!start with
          | None -> [ "tatp_kill: no machine was killed" ]
          | Some r ->
              List.filter_map
                (fun (what, v) -> if v = None then Some ("tatp_kill: never reached " ^ what) else None)
                [ ("all-active", r.since "all-active"); ("data-rec-done", r.since "data-rec-done");
                  ("90% of the pre-kill throughput", r.to90_ms) ]
        in
        { op = Tatp.op t; arm; settle; check });
  }

let all = [ tatp_90; tpcc_8; ycsb_b_snapshot; tatp_kill ]
let find name = List.find_opt (fun w -> w.name = name) all
