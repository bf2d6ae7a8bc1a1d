open Farm_sim

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 NVRAM bank} *)

let bank_basic () =
  let b = Farm_nvram.Bank.create () in
  let buf = Farm_nvram.Bank.alloc b ~key:1 ~size:64 in
  check_bool "zeroed" true (Farm_nvram.Pagemem.sub buf 0 64 = Bytes.make 64 '\000');
  Farm_nvram.Pagemem.blit_from_bytes (Bytes.of_string "x") 0 buf 10 1;
  (match Farm_nvram.Bank.find b ~key:1 with
  | Some buf' -> check_bool "same buffer" true (buf == buf')
  | None -> Alcotest.fail "lost region");
  check_int "total bytes" 64 (Farm_nvram.Bank.total_bytes b);
  Alcotest.check_raises "double alloc"
    (Invalid_argument "Bank.alloc: region 1 already present") (fun () ->
      ignore (Farm_nvram.Bank.alloc b ~key:1 ~size:8))

(* A region costs host memory only for the pages its objects were written
   to; capacity, which the energy model saves, is unchanged. *)
let bank_pages_on_write () =
  let module P = Farm_nvram.Pagemem in
  let module L = Farm_core.Obj_layout in
  let b = Farm_nvram.Bank.create () in
  let size = 1 lsl 20 and page = P.page_size in
  let m = Farm_nvram.Bank.alloc b ~key:1 ~size in
  check_int "fresh region holds no page" 0 (Farm_nvram.Bank.resident_bytes b);
  check_bool "absent page reads as zeros" true (P.sub m (3 * page) page = Bytes.make page '\000');
  check_int "reads allocate nothing" 0 (P.resident_bytes m);
  let write ~off len =
    L.set m ~off (L.make ~locked:false ~allocated:true ~version:1);
    L.write_data m ~off (Bytes.make len 'v')
  in
  write ~off:((5 * page) + 128) 56;
  check_int "one object inside a page: that page" page (Farm_nvram.Bank.resident_bytes b);
  write ~off:((10 * page) - 16) 40;
  check_int "one object across a boundary: both pages" (3 * page)
    (Farm_nvram.Bank.resident_bytes b);
  write ~off:(size - 64) 56;
  check_int "the region's last bytes: its last page" (4 * page)
    (Farm_nvram.Bank.resident_bytes b);
  check_int "total bytes is capacity" size (Farm_nvram.Bank.total_bytes b);
  Alcotest.check_raises "word past the end"
    (Invalid_argument "Pagemem.get_int64_le") (fun () -> ignore (P.get_int64_le m (size - 7)))

let bank_wipe () =
  let b = Farm_nvram.Bank.create () in
  ignore (Farm_nvram.Bank.alloc b ~key:1 ~size:8);
  Farm_nvram.Bank.wipe b;
  check_bool "wiped" true (Farm_nvram.Bank.is_wiped b);
  check_bool "contents gone" true (Farm_nvram.Bank.find b ~key:1 = None)

(* {1 Energy model (§2.1, Figure 1)} *)

let energy_matches_paper () =
  let m = Farm_nvram.Energy.default in
  let e1 = Farm_nvram.Energy.joules_per_gb m ~ssds:1 in
  check_bool "1 SSD ~110 J/GB" true (e1 > 100. && e1 < 120.);
  let e4 = Farm_nvram.Energy.joules_per_gb m ~ssds:4 in
  check_bool "4 SSDs much cheaper" true (e4 < e1 /. 2.);
  (* monotonically decreasing *)
  let prev = ref infinity in
  for s = 1 to 4 do
    let e = Farm_nvram.Energy.joules_per_gb m ~ssds:s in
    check_bool "decreasing" true (e < !prev);
    prev := e
  done

let energy_cost_under_15_percent () =
  let m = Farm_nvram.Energy.default in
  (* worst case: single SSD, no optimization *)
  let frac = Farm_nvram.Energy.overhead_fraction m ~ssds:1 in
  check_bool "non-volatility under 15% of DRAM cost" true (frac < 0.15);
  let cost = Farm_nvram.Energy.energy_cost_per_gb m ~ssds:1 in
  check_bool "energy cost ~$0.55/GB" true (cost > 0.4 && cost < 0.7)

(* {1 Zookeeper-equivalent} *)

let zk_run fn =
  let e = Engine.create () in
  let zk = Farm_coord.Zk.create e ~rng:(Rng.create 3) ~replicas:5 in
  let result = ref None in
  Proc.spawn e (fun () -> result := Some (fn zk));
  Engine.run e;
  Option.get !result

let zk_cas_basic () =
  let ok =
    zk_run (fun zk ->
        match Farm_coord.Zk.compare_and_swap zk ~expected_seq:0 "a" with
        | Ok 1 -> (
            match Farm_coord.Zk.read zk with
            | Some (1, "a") -> (
                match Farm_coord.Zk.compare_and_swap zk ~expected_seq:1 "b" with
                | Ok 2 -> Farm_coord.Zk.read zk = Some (2, "b")
                | _ -> false)
            | _ -> false)
        | _ -> false)
  in
  check_bool "cas sequence" true ok

let zk_cas_conflict () =
  let ok =
    zk_run (fun zk ->
        ignore (Farm_coord.Zk.compare_and_swap zk ~expected_seq:0 "a");
        match Farm_coord.Zk.compare_and_swap zk ~expected_seq:0 "b" with
        | Error (`Conflict 1) -> Farm_coord.Zk.read zk = Some (1, "a")
        | _ -> false)
  in
  check_bool "stale cas rejected" true ok

let zk_concurrent_single_winner () =
  let e = Engine.create () in
  let zk = Farm_coord.Zk.create e ~rng:(Rng.create 4) ~replicas:5 in
  let wins = ref 0 and losses = ref 0 in
  for i = 0 to 9 do
    Proc.spawn e (fun () ->
        match Farm_coord.Zk.compare_and_swap zk ~expected_seq:0 (string_of_int i) with
        | Ok _ -> incr wins
        | Error _ -> incr losses)
  done;
  Engine.run e;
  check_int "exactly one winner" 1 !wins;
  check_int "nine losers" 9 !losses

let zk_quorum_loss () =
  let e = Engine.create () in
  let zk = Farm_coord.Zk.create e ~rng:(Rng.create 5) ~replicas:5 in
  Farm_coord.Zk.kill_replica zk 0;
  Farm_coord.Zk.kill_replica zk 1;
  check_bool "still quorate with 3/5" true (Farm_coord.Zk.has_quorum zk);
  Farm_coord.Zk.kill_replica zk 2;
  check_bool "no quorum with 2/5" false (Farm_coord.Zk.has_quorum zk);
  let result = ref None in
  Proc.spawn e (fun () ->
      result := Some (Farm_coord.Zk.compare_and_swap zk ~expected_seq:0 "x"));
  Engine.run e;
  check_bool "cas refused without quorum" true (!result = Some (Error `No_quorum));
  Farm_coord.Zk.revive_replica zk 2;
  let result2 = ref None in
  Proc.spawn e (fun () ->
      result2 := Some (Farm_coord.Zk.compare_and_swap zk ~expected_seq:0 "y"));
  Engine.run e;
  check_bool "works after revive" true (!result2 = Some (Ok 1))

let zk_bootstrap () =
  let e = Engine.create () in
  let zk = Farm_coord.Zk.create e ~rng:(Rng.create 6) ~replicas:3 in
  check_int "bootstrap seq" 1 (Farm_coord.Zk.bootstrap zk "init");
  let r = ref None in
  Proc.spawn e (fun () -> r := Some (Farm_coord.Zk.read zk));
  Engine.run e;
  check_bool "bootstrapped value" true (!r = Some (Some (1, "init")))

let suites =
  [
    ( "nvram.bank",
      [ test "basic" bank_basic; test "pages on first write" bank_pages_on_write; test "wipe" bank_wipe ]
    );
    ( "nvram.energy",
      [
        test "figure 1 shape" energy_matches_paper;
        test "cost under 15%" energy_cost_under_15_percent;
      ] );
    ( "coord.zk",
      [
        test "cas basic" zk_cas_basic;
        test "cas conflict" zk_cas_conflict;
        test "single winner" zk_concurrent_single_winner;
        test "quorum loss" zk_quorum_loss;
        test "bootstrap" zk_bootstrap;
      ] );
  ]
