open Farm_sim
open Farm_net

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type msg = Ping of int | Pong of int

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

let one_sided_read_works () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  let cell = ref 17 in
  let got = ref 0 in
  Proc.spawn e (fun () ->
      match Fabric.one_sided_read fab ~src:0 ~dst:1 ~bytes:8 (fun () -> !cell) with
      | Ok v -> got := v
      | Error _ -> Alcotest.fail "read failed");
  Engine.run e;
  check_int "read value" 17 !got

let one_sided_read_linearizes_at_target () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  let cell = ref 1 in
  (* mutate the cell just after the read is issued but before the target
     DMA happens: the read must see the new value *)
  Engine.schedule e ~at:(Time.ns 500) (fun () -> cell := 2);
  let got = ref 0 in
  Proc.spawn e (fun () ->
      match Fabric.one_sided_read fab ~src:0 ~dst:1 ~bytes:8 (fun () -> !cell) with
      | Ok v -> got := v
      | Error _ -> ());
  Engine.run e;
  check_int "sees post-issue write" 2 !got

let one_sided_write_applies_and_acks () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  let cell = ref 0 in
  let acked_at = ref Time.zero in
  Proc.spawn e (fun () ->
      (match Fabric.one_sided_write fab ~src:0 ~dst:2 ~bytes:64 (fun () -> cell := 9) with
      | Ok () -> acked_at := Proc.now ()
      | Error _ -> Alcotest.fail "write failed");
      check_int "applied" 9 !cell);
  Engine.run e;
  check_bool "hardware ack costs a round trip" true Time.(acked_at.contents > Time.us 1)

let dead_target_fails () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_alive fab 1 false;
  let result = ref None in
  Proc.spawn e (fun () ->
      result := Some (Fabric.one_sided_read fab ~src:0 ~dst:1 ~bytes:8 (fun () -> 0)));
  Engine.run e;
  match !result with
  | Some (Error `Unreachable) -> ()
  | Some (Ok _) -> Alcotest.fail "read from dead machine succeeded"
  | Some (Error `Timeout) | None -> Alcotest.fail "unexpected result"

let mid_flight_death () =
  (* the target dies while the request is in flight: error, no value *)
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Engine.schedule e ~at:(Time.ns 100) (fun () -> Fabric.set_alive fab 1 false);
  let result = ref None in
  Proc.spawn e (fun () ->
      result := Some (Fabric.one_sided_read fab ~src:0 ~dst:1 ~bytes:8 (fun () -> 1)));
  Engine.run e;
  check_bool "errored" true (match !result with Some (Error _) -> true | _ -> false)

let local_ops_skip_nic () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Proc.spawn e (fun () ->
      match Fabric.one_sided_read fab ~src:0 ~dst:0 ~bytes:8 (fun () -> 5) with
      | Ok v -> check_int "local read" 5 v
      | Error _ -> Alcotest.fail "local read failed");
  Engine.run e;
  check_int "no NIC messages for local access" 0 (Nic.ops (Fabric.nic fab 0))

let send_delivers () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  let got = ref None in
  Fabric.set_handler fab 1 (fun ~src ~reply:_ m -> got := Some (src, m));
  Proc.spawn e (fun () -> Fabric.send fab ~src:0 ~dst:1 ~bytes:32 (Ping 3));
  Engine.run e;
  check_bool "delivered" true (!got = Some (0, Ping 3))

let call_round_trip () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_handler fab 2 (fun ~src:_ ~reply m ->
      match m with Ping n -> reply ~bytes:16 (Pong (n * 2)) | Pong _ -> ());
  let got = ref None in
  Proc.spawn e (fun () -> got := Some (Fabric.call fab ~src:0 ~dst:2 ~bytes:32 (Ping 21)));
  Engine.run e;
  check_bool "rpc response" true (!got = Some (Ok (Pong 42)))

let call_timeout () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  (* machine 1 never replies *)
  Fabric.set_handler fab 1 (fun ~src:_ ~reply:_ _ -> ());
  let got = ref None in
  Proc.spawn e (fun () ->
      got := Some (Fabric.call ~timeout:(Time.ms 1) fab ~src:0 ~dst:1 ~bytes:32 (Ping 0)));
  Engine.run e;
  check_bool "timed out" true (!got = Some (Error `Timeout))

let partition_blocks () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_partition fab 1 7;
  check_bool "not reachable" false (Fabric.reachable fab 0 1);
  let result = ref None in
  Proc.spawn e (fun () ->
      result := Some (Fabric.one_sided_read fab ~src:0 ~dst:1 ~bytes:8 (fun () -> 0)));
  Engine.run e;
  check_bool "partitioned read errors" true
    (match !result with Some (Error _) -> true | _ -> false);
  Fabric.set_partition fab 1 0;
  check_bool "healed" true (Fabric.reachable fab 0 1)

(* Directed blackholes kill one half of a link. A blackholed forward leg
   never reaches the target, so nothing runs there; a blackholed return leg
   swallows the completion after the target DMA already ran. Either way the
   issuer gets a bounded [`Unreachable] after [failure_timeout], not a hang,
   and the other direction keeps working. *)
let blackhole_legs () =
  let timeout = Params.default.Params.failure_timeout in
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_handler fab 1 (fun ~src:_ ~reply m ->
      match m with Ping n -> reply ~bytes:16 (Pong n) | Pong _ -> ());
  let ran = ref false in
  let run_verb verb =
    ran := false;
    let result = ref None in
    let t0 = Engine.now e in
    Proc.spawn e (fun () ->
        let r = verb () in
        result := Some (r, Time.sub (Proc.now ()) t0));
    Engine.run e;
    match !result with Some rt -> rt | None -> Alcotest.fail "verb never returned"
  in
  let read ~src ~dst () =
    Fabric.one_sided_read fab ~src ~dst ~bytes:8 (fun () -> ran := true)
  in
  let write ~src ~dst () =
    Fabric.one_sided_write fab ~src ~dst ~bytes:64 (fun () -> ran := true)
  in
  let unreachable what (r, took) =
    check_bool (what ^ ": unreachable") true (r = Error `Unreachable);
    check_bool (what ^ ": after failure_timeout") true Time.(took >= timeout)
  in
  (* forward leg 0->1 dead: neither closure runs at the target *)
  Fabric.set_blackhole fab ~src:0 ~dst:1;
  unreachable "read, forward leg" (run_verb (read ~src:0 ~dst:1));
  check_bool "read closure never ran" false !ran;
  unreachable "write, forward leg" (run_verb (write ~src:0 ~dst:1));
  check_bool "write never applied" false !ran;
  (* the reverse direction 1->0 is untouched; a verb from 1 to 0 still
     fails, because its completion travels the dead 0->1 half *)
  check_bool "0->1 unreachable" false (Fabric.reachable fab 0 1);
  check_bool "1->0 reachable" true (Fabric.reachable fab 1 0);
  let delivered = ref None in
  Fabric.set_handler fab 0 (fun ~src ~reply:_ m -> delivered := Some (src, m));
  Proc.spawn e (fun () -> Fabric.send fab ~src:1 ~dst:0 ~bytes:32 (Ping 9));
  Engine.run e;
  check_bool "reverse send delivered" true (!delivered = Some (1, Ping 9));
  (* healing restores the link *)
  Fabric.clear_gray_faults fab;
  check_bool "healed read ok" true (fst (run_verb (read ~src:0 ~dst:1)) = Ok ());
  (* return leg 1->0 dead: the target DMA runs, the completion is lost *)
  Fabric.set_blackhole fab ~src:1 ~dst:0;
  unreachable "read, return leg" (run_verb (read ~src:0 ~dst:1));
  check_bool "read closure ran at the target" true !ran;
  unreachable "write, return leg" (run_verb (write ~src:0 ~dst:1));
  check_bool "write applied at the target" true !ran;
  (* a call whose reply leg is dead fails without a ~timeout *)
  let r, took = run_verb (fun () -> Fabric.call fab ~src:0 ~dst:1 ~bytes:32 (Ping 5)) in
  check_bool "call, reply leg: unreachable" true (r = Error `Unreachable);
  check_bool "call, reply leg: after failure_timeout" true Time.(took >= timeout);
  Fabric.clear_gray_faults fab;
  let r, _ = run_verb (fun () -> Fabric.call fab ~src:0 ~dst:1 ~bytes:32 (Ping 5)) in
  check_bool "healed call" true (r = Ok (Pong 5))

let nic_pipelines_saturate () =
  let e = Engine.create () in
  let nic = Nic.create e ~params:Params.default in
  (* one small message's service time *)
  let t1 = Nic.occupy nic ~bytes:16 in
  let t2 = Nic.occupy nic ~bytes:16 in
  (* two NICs: both process in parallel *)
  check_int "two pipes parallel" (Time.to_ns t1) (Time.to_ns t2);
  let t3 = Nic.occupy nic ~bytes:16 in
  check_bool "third queues" true Time.(t3 > t1)

let nic_priority_no_queueing () =
  let e = Engine.create () in
  let nic = Nic.create e ~params:Params.default in
  (* saturate both pipes with large transfers *)
  ignore (Nic.occupy nic ~bytes:1_000_000);
  ignore (Nic.occupy nic ~bytes:1_000_000);
  let tp = Nic.occupy_priority nic ~bytes:16 in
  check_bool "priority skips queue" true Time.(tp < Time.us 10)

(* Figure 2 mechanism check: on a symmetric random-read workload, one-sided
   reads sustain several times the per-machine rate of RPC reads. *)
let rdma_vs_rpc_gap () =
  let machines = 4 in
  let e, (fab : msg Fabric.t), cpus = mk_fabric ~machines () in
  let rdma_ops = ref 0 and rpc_ops = ref 0 in
  let run_phase ~rdma ~count =
    let stop = ref false in
    for m = 0 to machines - 1 do
      for _ = 0 to 7 do
        Proc.spawn e (fun () ->
            let rng = Rng.create (m + 99) in
            while not !stop do
              let dst = (m + 1 + Rng.int rng (machines - 1)) mod machines in
              if rdma then begin
                match Fabric.one_sided_read fab ~src:m ~dst ~bytes:64 (fun () -> 0) with
                | Ok _ -> incr count
                | Error _ -> ()
              end
              else begin
                match Fabric.call fab ~src:m ~dst ~bytes:64 (Ping 1) with
                | Ok _ -> incr count
                | Error _ -> ()
              end
            done)
      done
    done;
    Engine.run ~until:(Time.add (Engine.now e) (Time.ms 2)) e;
    stop := true;
    Engine.run ~until:(Time.add (Engine.now e) (Time.ms 1)) e
  in
  (* RPC needs server-side dispatch: echo handler paying receive CPU *)
  for m = 0 to machines - 1 do
    Fabric.set_handler fab m (fun ~src:_ ~reply msg ->
        Cpu.exec_bg cpus.(m) ~cost:(Params.default.Params.cpu_rpc_recv) (fun () ->
            Proc.spawn e (fun () ->
                match msg with Ping n -> reply ~bytes:64 (Pong n) | Pong _ -> ())))
  done;
  run_phase ~rdma:true ~count:rdma_ops;
  run_phase ~rdma:false ~count:rpc_ops;
  let ratio = float_of_int !rdma_ops /. float_of_int (max 1 !rpc_ops) in
  check_bool
    (Printf.sprintf "one-sided >= 2x RPC (got %.2fx, %d vs %d)" ratio !rdma_ops !rpc_ops)
    true (ratio >= 2.0)

let suites =
  [
    ( "net.one_sided",
      [
        test "read" one_sided_read_works;
        test "read linearizes at target" one_sided_read_linearizes_at_target;
        test "write applies and acks" one_sided_write_applies_and_acks;
        test "dead target fails" dead_target_fails;
        test "mid-flight death" mid_flight_death;
        test "local ops skip NIC" local_ops_skip_nic;
      ] );
    ( "net.messaging",
      [
        test "send delivers" send_delivers;
        test "call round trip" call_round_trip;
        test "call timeout" call_timeout;
        test "partition blocks" partition_blocks;
        test "directed blackholes" blackhole_legs;
      ] );
    ( "net.nic",
      [
        test "pipelines saturate" nic_pipelines_saturate;
        test "priority skips queueing" nic_priority_no_queueing;
        test "rdma vs rpc gap" rdma_vs_rpc_gap;
      ] );
  ]
