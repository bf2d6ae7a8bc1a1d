open Farm_sim

let test name fn = Alcotest.test_case name `Quick fn
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Heap} *)

let heap_sorted () =
  let h = Heap.create () in
  let rng = Rng.create 7 in
  let n = 1000 in
  for i = 0 to n - 1 do
    Heap.push h ~key:(Rng.int rng 100) ~seq:i i
  done;
  let prev = ref min_int in
  for _ = 1 to n do
    match Heap.pop h with
    | Some (k, _) ->
        check_bool "keys non-decreasing" true (k >= !prev);
        prev := k
    | None -> Alcotest.fail "heap empty too early"
  done;
  check_bool "empty at end" true (Heap.is_empty h)

let heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:5 ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, v) -> check_int "FIFO among equal keys" i v
    | None -> Alcotest.fail "missing entry"
  done

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops in key order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* Pushes, pops and removals in any mix: every pop returns the smallest
   [(key, seq)] among the entries neither popped nor removed, and removing
   through a stale handle (its entry already popped or removed, its slot
   perhaps reused) changes nothing. Handles are kept in push order and
   [Remove i] names the [i]-th push, live or not. *)
type heap_op = Push of int | Pop | Remove of int

let heap_remove_qcheck =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun k -> Push k) (int_bound 50));
          (2, return Pop);
          (2, map (fun i -> Remove i) (int_bound 60));
        ])
  in
  let print = function
    | Push k -> Printf.sprintf "Push %d" k
    | Pop -> "Pop"
    | Remove i -> Printf.sprintf "Remove %d" i
  in
  QCheck.Test.make ~name:"heap pops exactly the entries not removed, in order" ~count:300
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_bound 200) op))
    (fun ops ->
      let h = Heap.create () in
      let handles = ref [||] in
      (* the model: live entries as [(key, seq)], [seq] also the payload *)
      let live = ref [] in
      let pop_model () =
        match List.sort compare !live with
        | [] -> None
        | ((k, s) as e) :: _ ->
            live := List.filter (( <> ) e) !live;
            Some (k, s)
      in
      let ok = ref true in
      List.iteri
        (fun seq op ->
          match op with
          | Push key ->
              handles := Array.append !handles [| (Heap.push_handle h ~key ~seq seq, key, seq) |];
              live := (key, seq) :: !live
          | Pop -> if Heap.pop h <> pop_model () then ok := false
          | Remove i ->
              if i < Array.length !handles then begin
                let handle, key, seq = !handles.(i) in
                Heap.remove h handle;
                live := List.filter (( <> ) (key, seq)) !live
              end)
        ops;
      if Heap.length h <> List.length !live then ok := false;
      while not (Heap.is_empty h) do
        if Heap.pop h <> pop_model () then ok := false
      done;
      !ok && !live = [])

(* {1 Engine} *)

let engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule e ~at:(Time.us 3) (fun () -> order := 3 :: !order);
  Engine.schedule e ~at:(Time.us 1) (fun () -> order := 1 :: !order);
  Engine.schedule e ~at:(Time.us 2) (fun () -> order := 2 :: !order);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order)

let engine_until () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~at:(Time.ms 10) (fun () -> fired := true);
  Engine.run ~until:(Time.ms 5) e;
  check_bool "not yet fired" false !fired;
  check_int "clock at until" (Time.to_ns (Time.ms 5)) (Time.to_ns (Engine.now e));
  Engine.run ~until:(Time.ms 20) e;
  check_bool "fired in second run" true !fired

let engine_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:(Time.us 1) (fun () -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !order)

let engine_past_clamped () =
  let e = Engine.create () in
  Engine.schedule e ~at:(Time.ms 1) (fun () ->
      Engine.schedule e ~at:Time.zero (fun () ->
          check_int "clamped to now" (Time.to_ns (Time.ms 1)) (Time.to_ns (Engine.now e))));
  Engine.run e

(* {1 Processes} *)

let proc_sleep () =
  let e = Engine.create () in
  let woke = ref Time.zero in
  Proc.spawn e (fun () ->
      Proc.sleep (Time.us 100);
      woke := Proc.now ());
  Engine.run e;
  check_int "slept 100us" (Time.to_ns (Time.us 100)) (Time.to_ns !woke)

let proc_cancellation () =
  let e = Engine.create () in
  let ctx = Proc.Ctx.create () in
  let reached = ref false in
  Proc.spawn ~ctx e (fun () ->
      Proc.sleep (Time.ms 10);
      reached := true);
  Engine.schedule e ~at:(Time.ms 1) (fun () -> Proc.Ctx.cancel ctx);
  Engine.run e;
  check_bool "cancelled before wake" false !reached

let proc_cancel_before_start () =
  let e = Engine.create () in
  let ctx = Proc.Ctx.create () in
  Proc.Ctx.cancel ctx;
  let ran = ref false in
  Proc.spawn ~ctx e (fun () -> ran := true);
  Engine.run e;
  check_bool "never ran" false !ran

let ivar_basic () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Proc.spawn e (fun () -> got := Ivar.read iv);
  Proc.spawn e (fun () ->
      Proc.sleep (Time.us 50);
      Ivar.fill iv 42);
  Engine.run e;
  check_int "ivar value" 42 !got

let ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 5 do
    Proc.spawn e (fun () -> sum := !sum + Ivar.read iv)
  done;
  Engine.schedule e ~at:(Time.us 10) (fun () -> Ivar.fill iv 7);
  Engine.run e;
  check_int "all readers woke" 35 !sum

let ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.check_raises "second fill rejected" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Ivar.fill iv 2);
  Ivar.fill_if_empty iv 3;
  check_int "fill_if_empty keeps first" 1 (Option.get (Ivar.peek iv))

let ivar_on_fill () =
  let iv = Ivar.create () in
  let seen = ref [] in
  Ivar.on_fill iv (fun v -> seen := v :: !seen);
  Ivar.fill iv 9;
  Ivar.on_fill iv (fun v -> seen := (v * 10) :: !seen);
  Alcotest.(check (list int)) "callbacks" [ 90; 9 ] !seen

let mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Proc.spawn e (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.schedule e ~at:(Time.us 1) (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run e;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !got)

(* {1 CPU} *)

let cpu_parallelism () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~threads:2 in
  let finish = ref [] in
  for _ = 1 to 4 do
    Proc.spawn e (fun () ->
        Cpu.exec cpu ~cost:(Time.us 10);
        finish := Time.to_us_float (Proc.now ()) :: !finish)
  done;
  Engine.run e;
  (* 4 jobs of 10us on 2 threads: two finish at 10us, two at 20us *)
  let sorted = List.sort compare !finish in
  Alcotest.(check (list (float 0.01))) "G/G/2 completion times" [ 10.; 10.; 20.; 20. ] sorted

let cpu_queue_delay () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~threads:1 in
  Proc.spawn e (fun () -> Cpu.exec cpu ~cost:(Time.us 100));
  Engine.run ~until:(Time.us 1) e;
  let d = Time.to_us_float (Cpu.queue_delay cpu) in
  Alcotest.(check (float 0.01)) "queue delay" 99. d

let cpu_busy_accounting () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~threads:4 in
  for _ = 1 to 10 do
    Cpu.exec_bg cpu ~cost:(Time.us 5) (fun () -> ())
  done;
  Engine.run e;
  check_int "busy total" (Time.to_ns (Time.us 50)) (Time.to_ns (Cpu.busy_total cpu))

(* {1 RNG} *)

let rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.int a 1000 = Rng.int b 1000)
  done

let rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1_000_000) in
  check_bool "split streams differ" true (xs <> ys)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_nat)
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let rng_float_unit =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Rng.float rng in
      f >= 0. && f < 1.)

(* {1 Stats} *)

let hist_percentiles () =
  let h = Stats.Hist.create () in
  for i = 1 to 1000 do
    Stats.Hist.record h i
  done;
  check_int "count" 1000 (Stats.Hist.count h);
  let p50 = Stats.Hist.percentile h 50. in
  check_bool "p50 near 500" true (p50 >= 480 && p50 <= 530);
  let p99 = Stats.Hist.percentile h 99. in
  check_bool "p99 near 990" true (p99 >= 960 && p99 <= 1030);
  check_int "max exact" 1000 (Stats.Hist.max_value h)

let hist_empty () =
  let h = Stats.Hist.create () in
  check_int "empty percentile" 0 (Stats.Hist.percentile h 99.);
  check_int "empty count" 0 (Stats.Hist.count h)

let hist_merge () =
  let a = Stats.Hist.create () and b = Stats.Hist.create () in
  Stats.Hist.record a 10;
  Stats.Hist.record b 1_000_000;
  Stats.Hist.merge ~into:a b;
  check_int "merged count" 2 (Stats.Hist.count a);
  check_bool "merged max" true (Stats.Hist.max_value a = 1_000_000)

let hist_accuracy =
  QCheck.Test.make ~name:"histogram percentile within 5%" ~count:100
    QCheck.(list_of_size (Gen.int_range 10 500) (int_range 1 1_000_000))
    (fun samples ->
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.record h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      let exact = sorted.((n * 9 / 10) - 1 + (if n * 9 mod 10 = 0 then 0 else 1)) in
      let approx = Stats.Hist.percentile h 90. in
      (* log-bucketed: allow 5% relative error plus small absolute slack *)
      abs (approx - exact) <= (exact / 20) + 2 || approx >= exact)

(* Samples spread evenly over the octaves, so that a histogram's bucket
   array crosses its doubling boundaries, plus 0, negative samples (which
   clamp to 0) and [max_int], which lands in the highest bucket. *)
let hist_sample =
  QCheck.Gen.(
    frequency
      [
        (1, return 0);
        (1, int_range (-1000) (-1));
        (1, return max_int);
        ( 12,
          map2 (fun k r -> (1 lsl k) lor (r land ((1 lsl k) - 1))) (int_range 0 61) int );
      ])

let hist_samples = QCheck.Gen.(list_size (int_range 1 60) hist_sample)

let hist_of samples =
  let h = Stats.Hist.create () in
  List.iter (Stats.Hist.record h) samples;
  h

(* Everything a histogram answers: with one percentile per rank, two
   histograms agree on it iff their buckets hold the same counts. *)
let hist_view h =
  let n = Stats.Hist.count h in
  ( n,
    Stats.Hist.mean h,
    Stats.Hist.min_value h,
    Stats.Hist.max_value h,
    List.init n (fun r -> Stats.Hist.percentile h (100. *. (float_of_int r +. 0.5) /. float_of_int n)) )

let hist_percentile_rank =
  QCheck.Test.make ~name:"growing histogram: percentile in the nearest-rank bucket" ~count:300
    (QCheck.make hist_samples)
    (fun samples ->
      let h = hist_of samples in
      let sorted = Array.of_list (List.sort compare (List.map (max 0) samples)) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
          let v = Stats.Hist.percentile h p in
          v = Stats.Hist.max_value h || Stats.Hist.index v = Stats.Hist.index sorted.(rank - 1))
        [ 0.1; 1.; 50.; 90.; 99.; 99.9; 100. ])

let hist_merge_grow =
  QCheck.Test.make ~name:"growing histogram: merge either way equals one histogram" ~count:300
    (QCheck.make QCheck.Gen.(pair hist_samples hist_samples))
    (fun (xs, ys) ->
      let whole = hist_view (hist_of (xs @ ys)) in
      let a = hist_of xs in
      Stats.Hist.merge ~into:a (hist_of ys);
      let b = hist_of ys in
      Stats.Hist.merge ~into:b (hist_of xs);
      let e = Stats.Hist.create () in
      Stats.Hist.merge ~into:e (hist_of xs);
      Stats.Hist.merge ~into:e (hist_of ys);
      hist_view a = whole && hist_view b = whole && hist_view e = whole)

let hist_clear_reuse =
  QCheck.Test.make ~name:"growing histogram: clear then reuse equals a fresh one" ~count:300
    (QCheck.make QCheck.Gen.(pair hist_samples hist_samples))
    (fun (xs, ys) ->
      let h = hist_of xs in
      Stats.Hist.clear h;
      let empty = hist_view h = hist_view (Stats.Hist.create ()) in
      List.iter (Stats.Hist.record h) ys;
      let into = hist_of ys and cleared = hist_of xs in
      Stats.Hist.clear cleared;
      Stats.Hist.merge ~into cleared;
      empty && hist_view h = hist_view (hist_of ys) && hist_view into = hist_view (hist_of ys))

let series_binning () =
  let s = Stats.Series.create ~bin:(Time.ms 1) in
  Stats.Series.add s ~at:(Time.us 500) 1;
  Stats.Series.add s ~at:(Time.us 999) 2;
  Stats.Series.add s ~at:(Time.us 1001) 5;
  check_int "bin 0" 3 (Stats.Series.get s 0);
  check_int "bin 1" 5 (Stats.Series.get s 1);
  check_int "bin 2 empty" 0 (Stats.Series.get s 2)

let series_growth () =
  let s = Stats.Series.create ~bin:(Time.us 1) in
  Stats.Series.add s ~at:(Time.ms 100) 7;
  check_int "late bin" 7 (Stats.Series.get s 100_000)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "sim.heap",
      [
        test "sorted pops" heap_sorted;
        test "fifo ties" heap_fifo_ties;
        qtest heap_qcheck;
        qtest heap_remove_qcheck;
      ] );
    ( "sim.engine",
      [
        test "time ordering" engine_ordering;
        test "run until" engine_until;
        test "same-time fifo" engine_same_time_fifo;
        test "past clamped" engine_past_clamped;
      ] );
    ( "sim.proc",
      [
        test "sleep" proc_sleep;
        test "cancellation" proc_cancellation;
        test "cancel before start" proc_cancel_before_start;
      ] );
    ( "sim.ivar",
      [
        test "basic" ivar_basic;
        test "multiple readers" ivar_multiple_readers;
        test "double fill" ivar_double_fill;
        test "on_fill" ivar_on_fill;
      ] );
    ("sim.mailbox", [ test "fifo" mailbox_fifo ]);
    ( "sim.cpu",
      [
        test "G/G/k parallelism" cpu_parallelism;
        test "queue delay" cpu_queue_delay;
        test "busy accounting" cpu_busy_accounting;
      ] );
    ( "sim.rng",
      [
        test "deterministic" rng_deterministic;
        test "split independent" rng_split_independent;
        qtest rng_bounds;
        qtest rng_float_unit;
      ] );
    ( "sim.stats",
      [
        test "percentiles" hist_percentiles;
        test "empty" hist_empty;
        test "merge" hist_merge;
        qtest hist_accuracy;
        qtest hist_percentile_rank;
        qtest hist_merge_grow;
        qtest hist_clear_reuse;
        test "series binning" series_binning;
        test "series growth" series_growth;
      ] );
  ]
