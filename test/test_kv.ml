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

let mk_table ?(buckets = 32) ?(slots = 4) c ~vsize =
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  Hashtable.create c ~regions:[| r1.Wire.rid; r2.Wire.rid |] ~buckets ~ksize:8 ~vsize ~slots ()

(* {1 Codec} *)

let codec_addr_roundtrip =
  QCheck.Test.make ~name:"address encoding roundtrips" ~count:500
    QCheck.(pair (int_range 1 1000) (int_range 0 0xFFFFFF))
    (fun (region, offset) ->
      let a = Addr.make ~region ~offset in
      Codec.decode_addr (Codec.encode_addr a) = Some a)

let codec_null () =
  check_bool "null decodes to None" true (Codec.decode_addr 0 = None)

let fnv_positive =
  QCheck.Test.make ~name:"fnv1a non-negative" ~count:200 QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s -> Codec.fnv1a (Bytes.of_string s) >= 0)

(* {1 Hash table: model-based random testing} *)

let hashtable_model () =
  let c = mk_cluster () in
  let t = mk_table c ~vsize:16 in
  let model : (int, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
  let rng = Rng.create 2024 in
  let value v =
    let b = Bytes.make 16 '\000' in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    b
  in
  for step = 1 to 400 do
    let k = Rng.int rng 60 in
    let roll = Rng.int rng 100 in
    Cluster.run_on c ~machine:(Rng.int rng (Cluster.n_machines c)) (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              if roll < 50 then begin
                let v = value step in
                Hashtable.insert tx t (key8 k) v;
                Hashtbl.replace model k v
              end
              else if roll < 70 then begin
                let deleted = Hashtable.delete tx t (key8 k) in
                let expected = Hashtbl.mem model k in
                if deleted <> expected then
                  Fmt.failwith "delete mismatch at step %d (key %d)" step k;
                Hashtbl.remove model k
              end
              else begin
                let got = Hashtable.lookup tx t (key8 k) in
                let expected = Hashtbl.find_opt model k in
                match (got, expected) with
                | None, None -> ()
                | Some g, Some e when Bytes.equal g e -> ()
                | _ -> Fmt.failwith "lookup mismatch at step %d (key %d)" step k
              end)
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "op failed: %a" Txn.pp_abort e)
  done;
  (* final sweep *)
  for k = 0 to 59 do
    let got =
      Cluster.run_on c ~machine:0 (fun st ->
          match Api.run_retry st ~thread:0 (fun tx -> Hashtable.lookup tx t (key8 k)) with
          | Ok v -> v
          | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
    in
    check_bool
      (Printf.sprintf "final state key %d" k)
      true
      (match (got, Hashtbl.find_opt model k) with
      | None, None -> true
      | Some g, Some e -> Bytes.equal g e
      | _ -> false)
  done

let hashtable_overflow_chains () =
  (* a single bucket with 2 slots forces overflow chaining *)
  let c = mk_cluster () in
  let t = mk_table c ~buckets:1 ~slots:2 ~vsize:8 in
  Cluster.run_on c ~machine:0 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            for k = 0 to 9 do
              Hashtable.insert tx t (key8 k) (key8 (k * 7))
            done)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  for k = 0 to 9 do
    let got =
      Cluster.run_on c ~machine:1 (fun st ->
          match Api.run_retry st ~thread:0 (fun tx -> Hashtable.lookup tx t (key8 k)) with
          | Ok v -> v
          | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
    in
    check_bool (Printf.sprintf "chained key %d" k) true
      (got = Some (key8 (k * 7)))
  done;
  (* delete from the middle of a chain *)
  Cluster.run_on c ~machine:0 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            check_bool "delete chained" true (Hashtable.delete tx t (key8 5)))
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  let got =
    Cluster.run_on c ~machine:0 (fun st ->
        match Api.run_retry st ~thread:0 (fun tx -> Hashtable.lookup tx t (key8 5)) with
        | Ok v -> v
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_bool "deleted from chain" true (got = None)

let hashtable_lockfree_consistent () =
  (* lock-free lookups racing transactional updates only ever see values
     that were actually written *)
  let c = mk_cluster () in
  let t = mk_table c ~vsize:8 in
  Cluster.run_on c ~machine:0 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx -> Hashtable.insert tx t (key8 1) (key8 1000))
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  let stop = ref false in
  let bogus = ref 0 and reads = ref 0 in
  let writer = Cluster.machine c 1 in
  Proc.spawn ~ctx:writer.State.ctx c.Cluster.engine (fun () ->
      let v = ref 1000 in
      while not !stop do
        incr v;
        (match
           Api.run_retry writer ~thread:0 (fun tx ->
               Hashtable.insert tx t (key8 1) (key8 !v))
         with
        | Ok () -> ()
        | Error _ -> ());
        Proc.sleep (Time.us 40)
      done);
  for m = 2 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        while not !stop do
          (match Hashtable.lookup_lockfree st t (key8 1) with
          | Some b ->
              incr reads;
              let v = Int64.to_int (Bytes.get_int64_le b 0) in
              if v < 1000 || v > 100_000 then incr bogus
          | None -> incr bogus);
          Proc.sleep (Time.us 20)
        done)
  done;
  Cluster.run_for c ~d:(Time.ms 30);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "many lock-free reads" true (!reads > 200);
  check_int "no bogus values" 0 !bogus

(* {1 B-tree} *)

let mk_btree c =
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  Cluster.run_on c ~machine:0 (fun st ->
      Btree.create st ~thread:0 ~regions:[| r1.Wire.rid; r2.Wire.rid |] ~fanout:6 ())

let btree_model () =
  let c = mk_cluster () in
  let t = mk_btree c in
  let module M = Map.Make (Int) in
  let model : int M.t ref = ref M.empty in
  let rng = Rng.create 99 in
  for step = 1 to 400 do
    let k = Rng.int rng 200 in
    let roll = Rng.int rng 100 in
    Cluster.run_on c ~machine:(Rng.int rng (Cluster.n_machines c)) (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              if roll < 55 then begin
                Btree.insert tx t k step;
                model := M.add k step !model
              end
              else if roll < 70 then begin
                let deleted = Btree.delete tx t k in
                if deleted <> M.mem k !model then
                  Fmt.failwith "btree delete mismatch at step %d" step;
                model := M.remove k !model
              end
              else if roll < 90 then begin
                let got = Btree.find tx t k in
                if got <> M.find_opt k !model then
                  Fmt.failwith "btree find mismatch at step %d (key %d)" step k
              end
              else begin
                let lo = Rng.int rng 150 in
                let hi = lo + Rng.int rng 50 in
                let got = Btree.range tx t ~lo ~hi in
                let expected =
                  M.bindings (M.filter (fun k _ -> k >= lo && k <= hi) !model)
                in
                if got <> expected then
                  Fmt.failwith "btree range mismatch at step %d [%d,%d]: %d vs %d" step lo
                    hi (List.length got) (List.length expected)
              end)
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "btree op failed: %a" Txn.pp_abort e)
  done

let btree_sorted_bulk () =
  (* enough keys to force multi-level splits at fanout 6 *)
  let c = mk_cluster () in
  let t = mk_btree c in
  let n = 300 in
  let i = ref 0 in
  while !i < n do
    let lo = !i and hi = min n (!i + 25) in
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              for k = lo to hi - 1 do
                Btree.insert tx t k (k * 3)
              done)
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
    i := hi
  done;
  let all =
    Cluster.run_on c ~machine:1 (fun st ->
        match Api.run_retry st ~thread:0 (fun tx -> Btree.range tx t ~lo:0 ~hi:n) with
        | Ok l -> l
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "all keys present" n (List.length all);
  List.iteri (fun i (k, v) -> check_bool "sorted and correct" true (k = i && v = i * 3)) all

let btree_lockfree_lookup () =
  let c = mk_cluster () in
  let t = mk_btree c in
  Cluster.run_on c ~machine:0 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            for k = 0 to 100 do
              Btree.insert tx t k (k + 7)
            done)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  let st = Cluster.machine c 2 in
  let checks = ref 0 in
  Cluster.run_on c ~machine:2 (fun _ ->
      for k = 0 to 100 do
        (match Btree.lookup_lockfree st t k with
        | Some v -> check_int "lock-free value" (k + 7) v
        | None -> Alcotest.fail "lock-free miss");
        incr checks
      done;
      check_bool "missing key" true (Btree.lookup_lockfree st t 5000 = None));
  check_int "all checked" 101 !checks

let btree_lockfree_with_concurrent_splits () =
  (* a writer keeps inserting (forcing splits); lock-free readers must
     always return correct values for already-inserted keys, falling back
     through fence-key checks when their cache goes stale *)
  let c = mk_cluster () in
  let t = mk_btree c in
  let inserted = ref (-1) in
  let stop = ref false in
  let writer = Cluster.machine c 1 in
  Proc.spawn ~ctx:writer.State.ctx c.Cluster.engine (fun () ->
      let k = ref 0 in
      while not !stop && !k < 400 do
        (match
           Api.run_retry writer ~thread:0 (fun tx -> Btree.insert tx t !k (!k * 2))
         with
        | Ok () ->
            inserted := !k;
            incr k
        | Error _ -> ());
        Proc.sleep (Time.us 30)
      done);
  let wrong = ref 0 and reads = ref 0 in
  for m = 2 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        let rng = Rng.split st.State.rng in
        while not !stop do
          let upper = !inserted in
          if upper >= 0 then begin
            let k = Rng.int rng (upper + 1) in
            incr reads;
            match Btree.lookup_lockfree st t k with
            | Some v -> if v <> k * 2 then incr wrong
            | None -> incr wrong
          end;
          Proc.sleep (Time.us 25)
        done)
  done;
  Cluster.run_for c ~d:(Time.ms 25);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "many racing reads" true (!reads > 100);
  check_int "no wrong lock-free results" 0 !wrong

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ("kv.codec", [ qtest codec_addr_roundtrip; test "null" codec_null; qtest fnv_positive ]);
    ( "kv.hashtable",
      [
        test "model-based random ops" hashtable_model;
        test "overflow chains" hashtable_overflow_chains;
        test "lock-free consistent" hashtable_lockfree_consistent;
      ] );
    ( "kv.btree",
      [
        test "model-based random ops" btree_model;
        test "sorted bulk + splits" btree_sorted_bulk;
        test "lock-free lookup" btree_lockfree_lookup;
        test "lock-free vs concurrent splits" btree_lockfree_with_concurrent_splits;
      ] );
  ]
