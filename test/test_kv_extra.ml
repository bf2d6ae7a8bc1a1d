open Farm_sim
open Farm_core
open Farm_kv
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let key8 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

(* {1 B-tree structural invariants after heavy churn} *)

let btree_invariants_after_churn () =
  let c = mk_cluster () in
  let r1 = Cluster.alloc_region_exn c in
  let tree =
    Cluster.run_on c ~machine:0 (fun st ->
        Btree.create st ~thread:0 ~regions:[| r1.Wire.rid |] ~fanout:5 ())
  in
  let rng = Rng.create 31 in
  let live = Hashtbl.create 128 in
  for _step = 1 to 600 do
    let k = Rng.int rng 500 in
    let insert = Rng.int rng 100 < 70 in
    Cluster.run_on c ~machine:(Rng.int rng (Cluster.n_machines c)) (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              if insert then begin
                Btree.insert tx tree k (k * 11);
                Hashtbl.replace live k ()
              end
              else begin
                ignore (Btree.delete tx tree k);
                Hashtbl.remove live k
              end)
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  done;
  let violations, total =
    Cluster.run_on c ~machine:1 (fun st ->
        match Api.run_retry st ~thread:0 (fun tx -> Btree.check_invariants tx tree) with
        | Ok v -> v
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  List.iter (fun v -> Alcotest.failf "invariant violation: %s" v) violations;
  check_int "leaf chain covers all live keys" (Hashtbl.length live) total

(* {1 Partitioned hash tables (the TPC-C co-partitioning mechanism)} *)

let partitioned_table_locality () =
  let c = mk_cluster ~machines:6 () in
  let r0 = Cluster.alloc_region_exn c in
  let r1 = Cluster.alloc_region_exn c in
  let partition_of key = Int64.to_int (Bytes.get_int64_le key 0) mod 2 in
  let t =
    Hashtable.create c ~regions:[| r0.Wire.rid; r1.Wire.rid |] ~buckets:32 ~ksize:8 ~vsize:8
      ~partitions:2 ~partition_of ()
  in
  (* every key's bucket must live in its partition's region *)
  for k = 0 to 63 do
    let b = t.Hashtable.buckets.(Hashtable.bucket_of t (key8 k)) in
    let expected = if k mod 2 = 0 then r0.Wire.rid else r1.Wire.rid in
    check_int (Printf.sprintf "key %d in partition region" k) expected b.Addr.region
  done;
  (* and the table still behaves *)
  Cluster.run_on c ~machine:1 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            for k = 0 to 63 do
              Hashtable.insert tx t (key8 k) (key8 (k + 1))
            done)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  for k = 0 to 63 do
    let got =
      Cluster.run_on c ~machine:2 (fun st -> Hashtable.lookup_lockfree st t (key8 k))
    in
    check_bool "lookup after partitioned insert" true (got = Some (key8 (k + 1)))
  done

(* {1 Region locality hints (§3): co-located replica sets} *)

let region_locality_hint () =
  let c = mk_cluster ~machines:6 () in
  let target = Cluster.alloc_region_exn c in
  let near = Cluster.alloc_region_exn ~locality:target.Wire.rid c in
  check_int "primary co-located" target.Wire.primary near.Wire.primary;
  Alcotest.(check (list int))
    "backups co-located" (List.sort compare target.Wire.backups)
    (List.sort compare near.Wire.backups)

(* {1 Data recovery pacing (§5.4)}: recovery reads are spaced by the
   pacing interval, so re-replication takes much longer than the raw
   transfer would. *)

let data_recovery_is_paced () =
  let run ~interval =
    let params =
      { quick_params with Params.recovery_interval = interval; region_size = 1 lsl 18 }
    in
    let c = mk_cluster ~machines:8 ~params () in
    (* keep the CM out of the victim region so reconfiguration stays fast *)
    let _r0 = Cluster.alloc_region_exn c in
    let r = Cluster.alloc_region_exn c in
    ignore (alloc_cells c ~region:r.Wire.rid ~n:8 ~init:3);
    Cluster.run_for c ~d:(Time.ms 10);
    Cluster.kill c r.Wire.primary;
    let guard = ref 0 in
    while Cluster.first_event c Farm_obs.Obs.K_ms_data_rec_done = None && !guard < 400 do
      incr guard;
      Cluster.run_for c ~d:(Time.ms 10)
    done;
    (* measure the re-replication itself, not failure detection *)
    match
      ( Cluster.first_event c Farm_obs.Obs.K_ms_data_rec_start,
        Cluster.first_event c Farm_obs.Obs.K_ms_data_rec_done )
    with
    | Some t0, Some t1 -> Time.sub t1 t0
    | _ -> Fmt.failwith "data recovery did not finish"
  in
  let paced = run ~interval:(Time.ms 2) in
  let fast = run ~interval:(Time.us 50) in
  check_bool
    (Printf.sprintf "pacing slows re-replication (%a vs %a)"
       (fun () -> Fmt.str "%a" Time.pp) paced
       (fun () -> Fmt.str "%a" Time.pp) fast)
    true
    Time.(paced > Time.mul_int fast 3)

(* {1 Bandwidth model}: larger transfers take proportionally longer. *)

let bandwidth_matters () =
  let c = mk_cluster ~machines:3 () in
  let st = Cluster.machine c 1 in
  let time_read bytes =
    Cluster.run_on c ~machine:1 (fun _ ->
        let t0 = Proc.now () in
        ignore
          (Farm_net.Fabric.one_sided_read st.State.fabric ~src:1 ~dst:2 ~bytes
             (fun () -> ()));
        Time.to_ns (Time.sub (Proc.now ()) t0))
  in
  let small = time_read 64 and big = time_read 262_144 in
  check_bool
    (Printf.sprintf "256KB read much slower than 64B (%d vs %d ns)" big small)
    true
    (big > small * 5)

let suites =
  [
    ( "kv.extra",
      [
        test "btree invariants after churn" btree_invariants_after_churn;
        test "partitioned table locality" partitioned_table_locality;
        test "region locality hint" region_locality_hint;
        test "data recovery pacing" data_recovery_is_paced;
        test "bandwidth model" bandwidth_matters;
      ] );
  ]
