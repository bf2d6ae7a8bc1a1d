open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let hier_params = { quick_params with Params.lease_group_size = 3 }

let ten = Config.make ~id:1 ~members:(List.init 10 Fun.id) ~domains:[] ~cm:0

(* Topology: with groups of 3 over members {1..n-1} (machine 0 is CM),
   the lowest member of each group leads and renews with the CM. *)
let topology () =
  let group m = Reconfig.lease_group ~group_size:3 ten m in
  (* members in id order: 1..9; groups {1,2,3} {4,5,6} {7,8,9} *)
  List.iter
    (fun (m, expected) ->
      check_int
        (Printf.sprintf "machine %d renews with %d" m expected)
        expected (group m).Reconfig.grantor)
    [ (1, 0); (2, 1); (3, 1); (4, 0); (5, 4); (6, 4); (7, 0); (8, 7); (9, 7) ];
  check_bool "1 leads" true (group 1).Reconfig.leads;
  check_bool "2 does not" false (group 2).Reconfig.leads;
  Alcotest.(check (list int)) "leader watches its members" [ 2; 3 ] (group 1).Reconfig.watches;
  Alcotest.(check (list int)) "CM watches the leaders" [ 1; 4; 7 ] (group 0).Reconfig.watches

(* Any configuration and group size: every non-CM member is watched by its
   grantor, everyone a grantor watches renews with it, leaders renew with
   the CM, and group size 0 is the flat layout. *)
let lease_groups_consistent =
  QCheck.Test.make ~name:"lease groups: grantors watch exactly their renewers" ~count:300
    QCheck.(triple (int_range 2 20) (int_range 0 6) (int_bound 1_000))
    (fun (n, group_size, cm_seed) ->
      let members = List.init n Fun.id and cm = cm_seed mod n in
      let c = Config.make ~id:1 ~members ~domains:[] ~cm in
      let group m = Reconfig.lease_group ~group_size c m in
      let watches g m = List.mem m (group g).Reconfig.watches in
      List.for_all
        (fun m ->
          let { Reconfig.grantor; leads; watches = w } = group m in
          (m = cm || (grantor <> m && watches grantor m))
          && List.for_all (fun x -> (group x).Reconfig.grantor = m) w
          && ((not leads) || grantor = cm)
          && (group_size > 0 || (grantor = cm && not leads)))
        members
      && (group_size > 0 || (group cm).Reconfig.watches = List.filter (( <> ) cm) members))

(* The CM's lease traffic shrinks from O(n) to O(n / group). *)
let cm_traffic_reduced () =
  let run params =
    let c = mk_cluster ~machines:10 ~params () in
    Cluster.run_for c ~d:(Time.ms 100);
    (Cluster.machine c 0).State.lease.State.grantor_messages
  in
  let flat = run quick_params in
  let hier = run hier_params in
  check_bool
    (Printf.sprintf "hierarchy cuts CM lease load (%d vs %d messages)" hier flat)
    true
    (hier * 2 < flat)

(* A member failure is still detected and evicted — via its group leader —
   within roughly two lease periods (the paper's "worst case would double
   failure detection time"). *)
let member_failure_detected_via_leader () =
  let c = mk_cluster ~machines:10 ~params:hier_params () in
  ignore (Cluster.alloc_region_exn c);
  Cluster.run_for c ~d:(Time.ms 20);
  let victim = 5 (* a non-leader member of group {4,5,6} *) in
  let killed_at = Cluster.now c in
  Cluster.kill c victim;
  Cluster.run_for c ~d:(Time.ms 150);
  let st = Cluster.machine c 0 in
  check_bool "victim evicted" false (Config.is_member st.State.config victim);
  (match Cluster.first_event c ~after:killed_at Farm_obs.Obs.K_ms_suspect with
  | Some at ->
      let d = Time.to_ms_float (Time.sub at killed_at) in
      check_bool
        (Printf.sprintf "detected within ~2 leases (%.1f ms, lease 5 ms)" d)
        true (d <= 15.0)
  | None -> Alcotest.fail "no suspicion");
  check_int "one reconfiguration" 2 st.State.config.Config.id

(* A leader failure is detected by both its members and the CM. *)
let leader_failure_detected () =
  let c = mk_cluster ~machines:10 ~params:hier_params () in
  ignore (Cluster.alloc_region_exn c);
  Cluster.run_for c ~d:(Time.ms 20);
  let victim = 4 (* leader of {4,5,6} *) in
  Cluster.kill c victim;
  Cluster.run_for c ~d:(Time.ms 200);
  let st = Cluster.machine c 0 in
  check_bool "leader evicted" false (Config.is_member st.State.config victim);
  (* the survivors regrouped under the new configuration and stay quiet *)
  let expiries_before =
    Array.fold_left
      (fun acc (s : State.t) -> acc + s.State.lease.State.expiry_events)
      0 c.Cluster.machines
  in
  Cluster.run_for c ~d:(Time.ms 100);
  let expiries_after =
    Array.fold_left
      (fun acc (s : State.t) -> acc + s.State.lease.State.expiry_events)
      0 c.Cluster.machines
  in
  check_int "no false positives after regrouping" expiries_before expiries_after

(* Transactions behave identically under the hierarchy. *)
let transactions_unaffected () =
  let c = mk_cluster ~machines:10 ~params:hier_params () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:100 in
  Cluster.run_on c ~machine:9 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            let v = read_int tx cells.(0) in
            write_int tx cells.(0) (v + 1))
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  check_int "commit works" 101 (read_cell c ~machine:3 cells.(0))

let suites =
  [
    ( "lease.hierarchy",
      [
        test "topology" topology;
        QCheck_alcotest.to_alcotest lease_groups_consistent;
        test "CM traffic reduced" cm_traffic_reduced;
        test "member failure via leader" member_failure_detected_via_leader;
        test "leader failure" leader_failure_detected;
        test "transactions unaffected" transactions_unaffected;
      ] );
  ]
