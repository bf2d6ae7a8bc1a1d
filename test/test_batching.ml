open Farm_sim
open Farm_net
open Farm_fault

(* Doorbell-batched one-sided verbs: CPU-cost accounting of the batch
   verbs, per-op independence of faults and failures within a batch, and
   the batched commit pipeline under the fault-schedule fuzzer. *)

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type msg = Nothing

let mk_fabric ?(machines = 3) ?(params = Params.default) () =
  let e = Engine.create () in
  let rng = Rng.create 11 in
  let fab = Fabric.create e ~params ~rng in
  let cpus =
    Array.init machines (fun id ->
        let cpu = Cpu.create e ~threads:4 in
        Fabric.add_machine fab ~id ~cpu;
        cpu)
  in
  (e, fab, cpus)

(* A batch of k writes costs issue + (k-1) doorbells + one poll; the same
   writes issued singly cost k * (issue + poll). *)
let batch_cpu_cost () =
  let p = Params.default in
  let e, (fab : msg Fabric.t), cpus = mk_fabric () in
  let dsts = [| 1; 2; 1; 2 |] in
  Proc.spawn e (fun () ->
      let results =
        Fabric.one_sided_write_batch fab ~src:0 ~n:4 ~dst:(Array.get dsts)
          ~bytes:(fun _ -> 64) ~apply:ignore
      in
      Array.iter
        (function Ok () -> () | Error _ -> Alcotest.fail "batch op failed")
        results);
  Engine.run e;
  let expect =
    Time.add
      (Time.add p.Params.cpu_rdma_issue (Time.mul_int p.Params.cpu_rdma_doorbell 3))
      p.Params.cpu_rdma_poll
  in
  check_int "batch of 4: issue + 3 doorbells + 1 poll" (Time.to_ns expect)
    (Time.to_ns (Cpu.busy_total cpus.(0)));
  (* the same four writes as singles *)
  let e2, (fab2 : msg Fabric.t), cpus2 = mk_fabric () in
  Proc.spawn e2 (fun () ->
      Array.iter
        (fun dst ->
          match Fabric.one_sided_write fab2 ~src:0 ~dst ~bytes:64 ignore with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "single op failed")
        dsts);
  Engine.run e2;
  let expect_singles =
    Time.mul_int (Time.add p.Params.cpu_rdma_issue p.Params.cpu_rdma_poll) 4
  in
  check_int "4 singles: 4 x (issue + poll)" (Time.to_ns expect_singles)
    (Time.to_ns (Cpu.busy_total cpus2.(0)))

let empty_batch_is_free () =
  let e, (fab : msg Fabric.t), cpus = mk_fabric () in
  let len = ref (-1) in
  Proc.spawn e (fun () ->
      len :=
        Array.length
          (Fabric.one_sided_read_batch fab ~src:0 ~n:0
             ~dst:(fun _ -> assert false)
             ~bytes:(fun _ -> assert false)
             ~read:(fun _ -> assert false)));
  Engine.run e;
  check_int "no results" 0 !len;
  check_int "no CPU charged" 0 (Time.to_ns (Cpu.busy_total cpus.(0)))

(* Batched reads return results in descriptor order and linearize at the
   target, exactly like the single verb. *)
let batch_read_order () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  let a = ref 10 and b = ref 20 in
  let got = ref [||] in
  Proc.spawn e (fun () ->
      got :=
        Fabric.one_sided_read_batch fab ~src:0 ~n:3
          ~dst:(Array.get [| 1; 2; 1 |])
          ~bytes:(fun _ -> 8)
          ~read:(function 0 -> !a | 1 -> !b | _ -> !a + 1));
  Engine.run e;
  let v i = match !got.(i) with Ok v -> v | Error _ -> Alcotest.fail "read failed" in
  check_int "desc 0" 10 (v 0);
  check_int "desc 1" 20 (v 1);
  check_int "desc 2" 11 (v 2)

(* A link fault on one destination delays only that op's completion; the
   other ops in the batch complete at their usual instant. *)
let per_op_fault_independence () =
  let delay = Time.us 50 in
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_link_fault ~delay fab ~src:0 ~dst:2;
  let done_at = Array.make 3 Time.zero in
  let returned_at = ref Time.zero in
  Proc.spawn e (fun () ->
      let results =
        Fabric.one_sided_write_batch
          ~on_complete:(fun i _ -> done_at.(i) <- Engine.now e)
          fab ~src:0 ~n:3
          ~dst:(Array.get [| 1; 2; 1 |])
          ~bytes:(fun _ -> 64) ~apply:ignore
      in
      returned_at := Proc.now ();
      Array.iter
        (function Ok () -> () | Error _ -> Alcotest.fail "batch op failed")
        results);
  Engine.run e;
  check_bool "delayed op completes at least [delay] after the first op" true
    Time.(done_at.(1) >= Time.add done_at.(0) delay);
  check_bool "ops on healthy links are unaffected by the fault" true
    Time.(Time.max done_at.(0) done_at.(2) < Time.add done_at.(0) (Time.us 10));
  check_bool "batch returns only after the slowest op" true
    Time.(returned_at.contents >= done_at.(1))

(* A dead machine in the batch fails only its own op: the others apply and
   ack normally. *)
let per_op_failure_independence () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_alive fab 2 false;
  let cell = ref 0 in
  let got = ref [||] in
  Proc.spawn e (fun () ->
      got :=
        Fabric.one_sided_write_batch fab ~src:0 ~n:2
          ~dst:(fun i -> i + 1)
          ~bytes:(fun _ -> 64)
          ~apply:(function 0 -> cell := 7 | _ -> assert false));
  Engine.run e;
  check_bool "live op ok" true (match !got.(0) with Ok () -> true | Error _ -> false);
  check_bool "dead op fails" true
    (match !got.(1) with Ok () -> false | Error _ -> true);
  check_int "live op applied" 7 !cell

(* End-to-end: the doorbell-batched commit pipeline passes a
   fault-schedule sweep — strict serializability, conservation, B-tree and
   state invariants, under crashes, partitions, lossy links and power
   failures. *)
let nemesis_sweep () =
  let opts = { Explorer.default_opts with machines = 5; workers = 1; duration = Time.ms 30 } in
  let report = Explorer.sweep ~opts ~base_seed:7 ~schedules:10 () in
  (match report.Explorer.failures with
  | [] -> ()
  | o :: _ ->
      Alcotest.failf "seed %d failed:@ %a" o.Explorer.seed Explorer.pp_outcome o);
  check_bool "committed transactions" true (report.Explorer.total_committed > 300)

let suites =
  [
    ( "batching",
      [
        test "batch CPU cost: issue + doorbells + one poll" batch_cpu_cost;
        test "empty batch charges nothing" empty_batch_is_free;
        test "batched reads keep descriptor order" batch_read_order;
        test "link fault delays only its own op" per_op_fault_independence;
        test "dead target fails only its own op" per_op_failure_independence;
        test "nemesis sweep passes batched" nemesis_sweep;
      ] );
  ]
