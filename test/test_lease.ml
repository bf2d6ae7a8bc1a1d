open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Failure detection latency: a dead machine is suspected within roughly
   one lease duration (5 ms here), not seconds (§5.1). *)
let detection_latency () =
  let c = mk_cluster ~machines:5 () in
  ignore (Cluster.alloc_region_exn c);
  Cluster.run_for c ~d:(Time.ms 20);
  let kill_at = Cluster.now c in
  Cluster.kill c 3;
  Cluster.run_for c ~d:(Time.ms 30);
  match Cluster.first_event c Farm_obs.Obs.K_ms_suspect with
  | Some at ->
      let latency = Time.to_ms_float (Time.sub at kill_at) in
      check_bool
        (Printf.sprintf "suspected within 1-2 lease durations (%.1f ms)" latency)
        true
        (latency >= 4.0 && latency <= 12.0)
  | None -> Alcotest.fail "no suspicion recorded"

(* No false positives with the interrupt-driven priority lease manager,
   even with the cluster under transaction load. *)
let no_false_positives_under_load () =
  let c = mk_cluster ~machines:5 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:16 ~init:0 in
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      for _ = 0 to 5 do
        Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
            let rng = Rng.split st.State.rng in
            while not !stop do
              let i = Rng.int rng 16 in
              (match
                 Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                     let v = read_int tx cells.(i) in
                     write_int tx cells.(i) (v + 1))
               with
              | Ok () | Error _ -> ());
              Proc.sleep (Time.us 100)
            done)
      done)
    c.Cluster.machines;
  Cluster.run_for c ~d:(Time.ms 300);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  let expiries =
    Array.fold_left
      (fun acc (st : State.t) -> acc + st.State.lease.State.expiry_events)
      0 c.Cluster.machines
  in
  check_int "zero false positives over 300ms under load" 0 expiries;
  check_int "no spurious reconfiguration" 1
    (Cluster.machine c 0).State.config.Config.id

(* Figure 16 mechanism: under load, the shared-thread lease managers see
   renewal delays that the dedicated-priority one does not. *)
let shared_vs_priority_delay () =
  let c = mk_cluster ~machines:3 () in
  let st = Cluster.machine c 1 in
  (* make the machine CPU very busy *)
  for _ = 0 to 63 do
    Cpu.exec_bg st.State.cpu ~cost:(Time.ms 5) (fun () -> ())
  done;
  st.State.lease.State.impl <- State.Ud_shared;
  let d_shared = Lease.scheduling_delay st in
  st.State.lease.State.impl <- State.Ud_thread_pri;
  let d_pri = Lease.scheduling_delay st in
  check_bool "shared thread delayed by CPU queue" true Time.(d_shared > Time.ms 1);
  check_bool "priority thread unaffected" true Time.(d_pri < Time.us 10)

(* Preemption spikes suspend the dedicated (non-priority) lease thread. *)
let ud_thread_spikes () =
  let c = mk_cluster ~machines:3 () in
  let st = Cluster.machine c 1 in
  st.State.lease.State.impl <- State.Ud_thread;
  st.State.lease.State.suspended_until <- Time.add (Cluster.now c) (Time.ms 7);
  let d = Lease.scheduling_delay st in
  check_bool "delayed until spike ends" true Time.(d >= Time.ms 6);
  (* after the spike passes, the delay is small again *)
  Cluster.run_for c ~d:(Time.ms 8);
  let d2 = Lease.scheduling_delay st in
  check_bool "small after spike" true Time.(d2 < Time.us 100)

(* The renewal protocol keeps both lease directions fresh. *)
let renewals_flow () =
  let c = mk_cluster ~machines:4 () in
  Cluster.run_for c ~d:(Time.ms 50);
  let now = Cluster.now c in
  Array.iter
    (fun (st : State.t) ->
      if not (State.is_cm st) then begin
        let age = Time.sub now st.State.lease.State.last_grant_from_cm in
        check_bool
          (Printf.sprintf "machine %d lease fresh (%.1f ms old)" st.State.id
             (Time.to_ms_float age))
          true
          Time.(age <= quick_params.Params.lease_duration)
      end)
    c.Cluster.machines;
  (* and the CM's view of every machine *)
  (match (Cluster.machine c 0).State.cm with
  | Some cm ->
      Array.iter
        (fun (st : State.t) ->
          if st.State.id <> 0 then begin
            match Hashtbl.find_opt cm.State.cm_leases st.State.id with
            | Some last ->
                check_bool "CM holds fresh lease" true
                  Time.(Time.sub now last <= quick_params.Params.lease_duration)
            | None -> Alcotest.fail "CM lost a lease entry"
          end)
        c.Cluster.machines
  | None -> Alcotest.fail "machine 0 should be CM")

(* Quantization: the priority lease manager wakes on system-timer
   boundaries (0.5 ms). *)
let timer_quantization () =
  let c = mk_cluster ~machines:3 () in
  let st = Cluster.machine c 1 in
  let q = Lease.quantize st (Time.us 1_100) in
  check_int "rounded up to timer resolution" (Time.to_ns (Time.us 1_500)) (Time.to_ns q);
  st.State.lease.State.impl <- State.Rpc_shared;
  let q2 = Lease.quantize st (Time.us 1_100) in
  check_int "no quantization for polling impls" (Time.to_ns (Time.us 1_100)) (Time.to_ns q2)

let suites =
  [
    ( "lease",
      [
        test "detection latency" detection_latency;
        test "no false positives under load" no_false_positives_under_load;
        test "shared vs priority delay" shared_vs_priority_delay;
        test "ud+thread spikes" ud_thread_spikes;
        test "renewals flow" renewals_flow;
        test "timer quantization" timer_quantization;
      ] );
  ]
