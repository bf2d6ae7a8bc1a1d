open Farm_sim
open Farm_core
open Farm_workloads
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let slow name fn = Alcotest.test_case name `Slow fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Driver} *)

let driver_measures () =
  let c = mk_cluster ~machines:3 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:0 in
  let stats =
    Driver.run c ~workers:2 ~duration:(Time.ms 20)
      ~op:(fun ctx ->
        let i = Rng.int ctx.Driver.rng 8 in
        match
          Api.run_retry ~attempts:4 ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
              let v = read_int tx cells.(i) in
              write_int tx cells.(i) (v + 1))
        with
        | Ok () -> true
        | Error _ -> false)
  in
  check_bool "ops recorded" true (Stats.Counter.get stats.Driver.ops > 50);
  check_bool "latency recorded" true (Stats.Hist.count stats.Driver.latency > 50);
  (* committed increments must equal the cells' sum *)
  let total = sum_cells c ~machine:0 cells in
  check_int "sum equals committed ops" (Stats.Counter.get stats.Driver.ops) total

let driver_warmup_excluded () =
  let c = mk_cluster ~machines:3 () in
  let stats =
    Driver.run c ~workers:1 ~warmup:(Time.ms 10) ~duration:(Time.ms 10)
      ~op:(fun ctx ->
        Proc.sleep (Time.us 100);
        ignore ctx;
        true)
  in
  (* ~10ms of measurement at ~10 ops/ms/machine max *)
  check_bool "warmup not counted" true (Stats.Counter.get stats.Driver.ops <= 350)

let recovery_time_detection () =
  let stats = Driver.create_stats () in
  (* synthesize a throughput series: 100/ms before failure at 50ms, zero
     for 30ms, then back to 100 *)
  for i = 0 to 49 do
    Stats.Series.add stats.Driver.series ~at:(Time.ms i) 100
  done;
  for i = 80 to 120 do
    Stats.Series.add stats.Driver.series ~at:(Time.ms i) 100
  done;
  match Driver.recovery_time stats ~failure_at:(Time.ms 50) ~fraction:0.8 with
  | Some t ->
      check_bool "detected ~30ms recovery" true
        (Time.to_ms_float t >= 29. && Time.to_ms_float t <= 31.)
  | None -> Alcotest.fail "recovery not detected"

(* {1 TATP} *)

let tatp_fixture =
  lazy
    (let c = mk_cluster ~machines:4 () in
     let t = Tatp.create c ~subscribers:300 ~regions_per_table:1 in
     Tatp.load c t;
     (c, t))

(* [create] returns before the build's last commits are truncated, so
   their backups still differ from the primaries; [load] waits a few
   milliseconds until they are, and the loaded cluster passes the
   invariant probes (no lock held, backups equal primaries). Every table
   holds exactly the rows of the TATP population rules, with their initial
   values. A fresh cluster: the shared fixture's rows change under the
   other tests. *)
let tatp_loaded () =
  let subscribers = 300 in
  let c = mk_cluster ~machines:4 () in
  let t = Tatp.create c ~subscribers ~regions_per_table:1 in
  let created = Cluster.now c in
  check_bool "right after create, backups lag the build's last commits" true
    (List.exists
       (fun (v : Farm_fault.Invariant.violation) -> v.name = "divergence")
       (Farm_fault.Invariant.check c));
  Tatp.load c t;
  check_bool "load took at most a few ms" true
    (Time.( <= ) (Cluster.now c) (Time.add created (Time.ms 5)));
  check_bool "no transaction, truncation, log write or log record pending" true
    (Array.for_all
       (fun (st : State.t) ->
         Txid.Tbl.length st.State.active_txs = 0
         && Int_tbl.fold (fun _ q acc -> acc && !q = []) st.State.pending_trunc true
         && st.State.log_writes = 0
         && st.State.inflight = 0)
       c.Cluster.machines);
  (match Farm_fault.Invariant.check c with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariants after load: %a"
        Fmt.(list ~sep:semi Farm_fault.Invariant.pp)
        vs);
  let row len fill = Bytes.make len fill in
  let per_subscriber count f =
    List.concat_map
      (fun s -> List.filter_map (f s) (List.init (count s) Fun.id))
      (List.init subscribers (fun i -> i + 1))
  in
  let sub =
    per_subscriber (fun _ -> 1) (fun s _ ->
        let r = row 40 '\000' in
        Bytes.set_int64_le r 0 (Int64.of_int s);
        Some (s, r))
  in
  let access = per_subscriber Tatp.n_access (fun s ai -> Some ((s * 4) + ai, row 16 '\001')) in
  let special =
    per_subscriber Tatp.n_special (fun s sf ->
        let r = row 16 '\000' in
        if (s + sf) mod 6 < 5 then Bytes.set r 0 '\001';
        Some ((s * 4) + sf, r))
  in
  let callfwd =
    per_subscriber Tatp.n_special (fun s sf ->
        if (s + sf) mod 2 = 0 then Some ((((s * 4) + sf) * 3) + 0, row 16 '\002') else None)
  in
  let rows_of (h : Farm_kv.Hashtable.t) =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              List.concat_map
                (fun b ->
                  List.concat_map
                    (fun slots ->
                      List.filter_map
                        (fun (used, k, v) ->
                          if used then Some (Int64.to_int (Bytes.get_int64_le k 0), v) else None)
                        (Array.to_list slots))
                    (hashtable_chain tx h b))
                (List.init (Array.length h.buckets) Fun.id))
        with
        | Ok rows -> List.sort compare rows
        | Error e -> Alcotest.failf "table scan aborted: %a" Txn.pp_abort e)
  in
  let check_table name h want =
    let got = rows_of h in
    check_int (name ^ " rows") (List.length want) (List.length got);
    check_bool (name ^ " rows and initial values") true (got = List.sort compare want)
  in
  check_int "sub: one row per subscriber" subscribers (List.length sub);
  check_table "sub" t.Tatp.sub sub;
  check_table "access" t.Tatp.access access;
  check_table "special" t.Tatp.special special;
  check_table "callfwd" t.Tatp.callfwd callfwd;
  check_bool "quiesced" true (Cluster.quiesce c);
  Cluster.run_for c ~d:(Time.ms 60);
  match Farm_fault.Invariant.check c with
  | [] -> ()
  | vs -> Alcotest.failf "invariants: %a" Fmt.(list ~sep:semi Farm_fault.Invariant.pp) vs

let tatp_transactions_work () =
  let c, t = Lazy.force tatp_fixture in
  let st = Cluster.machine c 2 in
  Cluster.run_on c ~machine:2 (fun _ ->
      let rng = Rng.create 5 in
      check_bool "get_subscriber_data" true (Tatp.get_subscriber_data st t rng);
      check_bool "get_access_data" true (Tatp.get_access_data st t rng);
      check_bool "get_new_destination" true (Tatp.get_new_destination st ~thread:0 t rng);
      check_bool "update_subscriber_data" true (Tatp.update_subscriber_data st ~thread:0 t rng);
      check_bool "update_location (function-shipped)" true
        (Tatp.update_location st ~thread:0 t rng);
      check_bool "insert_call_forwarding" true (Tatp.insert_call_forwarding st ~thread:0 t rng);
      check_bool "delete_call_forwarding" true (Tatp.delete_call_forwarding st ~thread:0 t rng))

let tatp_update_location_applies () =
  let c, t = Lazy.force tatp_fixture in
  (* ship an update and read the new vlr back *)
  Cluster.run_on c ~machine:3 (fun st ->
      (* find a subscriber whose bucket primary is remote *)
      let primary_of s =
        let bucket =
          t.Tatp.sub.Farm_kv.Hashtable.buckets
            .(Farm_kv.Hashtable.bucket_of t.Tatp.sub (Tatp.key8 s))
        in
        match Txn.ensure_mapping st bucket.Addr.region ~retries:5 with
        | Some info -> info.Wire.primary
        | None -> Alcotest.fail "no mapping"
      in
      let rec pick s = if primary_of s <> st.State.id then s else pick (s + 1) in
      let s = pick 1 in
      let primary = primary_of s in
      check_bool "shipping to remote primary" true (primary <> st.State.id);
      (match
         Comms.call st ~dst:primary ~timeout:(Time.ms 50)
           (Wire.App_call { tag = Tatp.update_location_tag; args = [| s; 31337 |] })
       with
      | Ok (Wire.App_reply { ok }) -> check_bool "shipped ok" true ok
      | _ -> Alcotest.fail "App_call failed");
      match Farm_kv.Hashtable.lookup_lockfree st t.Tatp.sub (Tatp.key8 s) with
      | Some row ->
          check_int "vlr updated" 31337 (Int64.to_int (Bytes.get_int64_le row 0))
      | None -> Alcotest.fail "subscriber vanished")

let tatp_mix_runs () =
  let c, t = Lazy.force tatp_fixture in
  let stats = Driver.run c ~workers:4 ~duration:(Time.ms 30) ~op:(Tatp.op t) in
  let ops = Stats.Counter.get stats.Driver.ops in
  let failures = Stats.Counter.get stats.Driver.failures in
  check_bool "substantial throughput" true (ops > 500);
  check_bool "failure rate under 2%" true (failures * 50 < ops)

let tatp_nonuniform_sids () =
  let _, t = Lazy.force tatp_fixture in
  let rng = Rng.create 77 in
  let counts = Array.make 301 0 in
  for _ = 1 to 20_000 do
    let s = Tatp.random_sid t rng in
    check_bool "in range" true (s >= 1 && s <= 300);
    counts.(s) <- counts.(s) + 1
  done;
  (* TATP's OR-based generator skews toward ids with more set bits *)
  let max_c = Array.fold_left max 0 counts in
  let min_c = Array.fold_left min max_int (Array.sub counts 1 300) in
  check_bool "distribution is skewed" true (max_c > 3 * (min_c + 1))

(* {1 TPC-C} *)

let tpcc_fixture =
  lazy
    (let c = mk_cluster ~machines:4 ~params:{ quick_params with Params.region_size = 1 lsl 20 } () in
     let scale = { Tpcc.warehouses = 2; districts = 3; customers = 8; items = 40 } in
     let t = Tpcc.create c ~scale () in
     Tpcc.load c t;
     (c, t))

let tpcc_loads () =
  let c, t = Lazy.force tpcc_fixture in
  check_bool "ytd consistent after load" true (Tpcc.check_ytd c t);
  check_bool "orders dense after load" true (Tpcc.check_orders c t)

let tpcc_new_order () =
  let c, t = Lazy.force tpcc_fixture in
  let before = Stats.Counter.get t.Tpcc.new_orders in
  let ok = ref false in
  Cluster.run_on c ~machine:1 (fun st ->
      let ctx = { Driver.st; thread = 0; rng = Rng.create 3; worker = 0 } in
      (* retry over the 1% intentional rollbacks *)
      let rec go n = if n = 0 then () else if Tpcc.new_order t ctx ~w:0 then ok := true else go (n - 1) in
      go 10);
  check_bool "new_order committed" true !ok;
  check_bool "counted" true (Stats.Counter.get t.Tpcc.new_orders > before)

let tpcc_payment_preserves_ytd () =
  let c, t = Lazy.force tpcc_fixture in
  Cluster.run_on c ~machine:2 (fun st ->
      let ctx = { Driver.st; thread = 0; rng = Rng.create 9; worker = 0 } in
      for _ = 1 to 10 do
        ignore (Tpcc.payment t ctx ~w:1)
      done);
  check_bool "W_YTD = sum(D_YTD) after payments" true (Tpcc.check_ytd c t)

let tpcc_mix_consistent () =
  let c, t = Lazy.force tpcc_fixture in
  let stats = Driver.run c ~workers:2 ~duration:(Time.ms 40) ~op:(Tpcc.op t) in
  check_bool "mix ran" true (Stats.Counter.get stats.Driver.ops > 30);
  Cluster.run_for c ~d:(Time.ms 20);
  check_bool "ytd invariant holds under full mix" true (Tpcc.check_ytd c t);
  check_bool "orders remain dense" true (Tpcc.check_orders c t)

(* {1 KV lookup workload} *)

let kvlookup_works () =
  let c = mk_cluster ~machines:4 () in
  let t = Kvlookup.create c ~keys:200 ~regions:2 in
  Kvlookup.load c t;
  let committed = Cluster.total_committed c and aborted = Cluster.total_aborted c in
  let stats = Driver.run c ~workers:4 ~duration:(Time.ms 20) ~op:(Kvlookup.op t) in
  check_int "no failures" 0 (Stats.Counter.get stats.Driver.failures);
  check_bool "high lookup rate" true (Stats.Counter.get stats.Driver.ops > 1000);
  (* served by lock-free reads: the commit protocol is untouched *)
  check_int "served by lock-free reads: no commits" committed (Cluster.total_committed c);
  check_int "served by lock-free reads: no aborts" aborted (Cluster.total_aborted c)

(* {1 YCSB} *)

let ycsb_profiles_run () =
  let c = mk_cluster ~machines:4 () in
  let t = Ycsb.create c ~keys:300 ~regions:2 in
  Ycsb.load c t;
  List.iter
    (fun profile ->
      let stats =
        Driver.run c ~workers:2 ~duration:(Time.ms 10) ~op:(Ycsb.op profile t)
      in
      check_bool
        (Printf.sprintf "%s makes progress" (Ycsb.profile_name profile))
        true
        (Stats.Counter.get stats.Driver.ops > 20))
    [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ]

(* Property: zipf never leaves [0, n), for any n and any rng stream. *)
let ycsb_zipf_bounds =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"zipf in [0, n)" ~count:500
       QCheck.(pair (int_range 1 5000) small_nat)
       (fun (n, seed) ->
         let rng = Rng.create seed in
         let ok = ref true in
         for _ = 1 to 50 do
           let k = Ycsb.zipf rng n in
           if k < 0 || k >= n then ok := false
         done;
         !ok))

(* Bounds regression: n = 1 must always yield key 0 (the recursion bottoms
   out at span <= 1 and the min with n-1 clamps to 0), never -1 or 1. *)
let ycsb_zipf_n1 () =
  let rng = Rng.create 9 in
  for _ = 1 to 500 do
    Alcotest.(check int) "n=1 draws 0" 0 (Ycsb.zipf rng 1)
  done

(* Hot-key mass decreases from the head of the key space to the tail: the
   first octant carries the 40% hot mass, and every octant outweighs the
   last (the trapezoid ramp-down of offset + uniform). Deterministic in the
   fixed seed. *)
let ycsb_zipf_mass_decreasing () =
  let rng = Rng.create 17 in
  let n = 4096 in
  let oct = Array.make 8 0 in
  for _ = 1 to 100_000 do
    let k = Ycsb.zipf rng n in
    oct.(k * 8 / n) <- oct.(k * 8 / n) + 1
  done;
  let pp = String.concat " " (Array.to_list (Array.map string_of_int oct)) in
  Alcotest.(check bool)
    (Printf.sprintf "first octant dominates every other (%s)" pp)
    true
    (Array.for_all (fun c -> oct.(0) > 2 * c) (Array.sub oct 1 7));
  Array.iteri
    (fun i c ->
      if i < 7 then
        Alcotest.(check bool)
          (Printf.sprintf "octant %d (%d) > tail octant (%d)" i c oct.(7))
          true (c > oct.(7)))
    oct;
  let first_half = oct.(0) + oct.(1) + oct.(2) + oct.(3) in
  let second_half = oct.(4) + oct.(5) + oct.(6) + oct.(7) in
  Alcotest.(check bool)
    (Printf.sprintf "first half %d > 2x second half %d" first_half second_half)
    true
    (first_half > 2 * second_half)

let ycsb_zipf_skewed () =
  let rng = Rng.create 3 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let k = Ycsb.zipf rng 1000 in
    check_bool "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* the head of the distribution is much hotter than the tail *)
  let head = Array.fold_left ( + ) 0 (Array.sub counts 0 100) in
  let tail = Array.fold_left ( + ) 0 (Array.sub counts 900 100) in
  check_bool
    (Printf.sprintf "zipfian skew (head %d vs tail %d)" head tail)
    true (head > 4 * (tail + 1))

(* {1 Baseline} *)

let baseline_single_machine () =
  let c = Baseline.cluster ~seed:5 () in
  check_int "one machine" 1 (Cluster.n_machines c);
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  Cluster.run_on c ~machine:0 (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> write_int tx cell 5) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  check_int "unreplicated commit works" 5 (read_cell c ~machine:0 cell)

let suites =
  [
    ( "workloads.driver",
      [
        test "measures" driver_measures;
        test "warmup excluded" driver_warmup_excluded;
        test "recovery time detection" recovery_time_detection;
      ] );
    ( "workloads.tatp",
      [
        slow "loaded" tatp_loaded;
        slow "all transactions" tatp_transactions_work;
        slow "function shipping applies" tatp_update_location_applies;
        slow "mix runs" tatp_mix_runs;
        slow "non-uniform sids" tatp_nonuniform_sids;
      ] );
    ( "workloads.tpcc",
      [
        slow "loads consistently" tpcc_loads;
        slow "new_order" tpcc_new_order;
        slow "payment preserves ytd" tpcc_payment_preserves_ytd;
        slow "full mix consistent" tpcc_mix_consistent;
      ] );
    ("workloads.kv", [ test "kvlookup" kvlookup_works ]);
    ( "workloads.ycsb",
      [
        slow "all profiles run" ycsb_profiles_run;
        test "zipf skew" ycsb_zipf_skewed;
        ycsb_zipf_bounds;
        test "zipf n=1 regression" ycsb_zipf_n1;
        test "zipf mass decreasing" ycsb_zipf_mass_decreasing;
      ] );
    ("workloads.baseline", [ test "single machine" baseline_single_machine ]);
  ]
