open Farm_harness

(* The declared-bounds baseline gate every bench's --check-baseline runs:
   each kind of bound passes at its limit and fails just past it, rows
   match by key, and a produced row with no baseline row fails. *)

let row key v = Json.Obj [ ("key", Json.Str key); ("v", v) ]
let num x = Json.Num x

(* True iff every outcome of gating [produced] rows under [bound] against
   a baseline file holding rows a (v = 100), b (v = 2) and l (v = []). *)
let passes bound produced =
  let file = Filename.temp_file "gate" ".json" in
  let base = [ row "a" (num 100.); row "b" (num 2.); row "l" (Json.Arr []) ] in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj [ ("rows", Json.Arr base) ]));
  close_out oc;
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Gate.check ~file
          [ { Gate.rows = "rows"; key = "key"; bounds = [ ("v", bound) ] } ]
          (Json.Obj [ ("rows", Json.Arr produced) ]))
  in
  List.for_all (function Gate.Pass _ -> true | Gate.Fail _ -> false) outcomes

let cases =
  [
    ("exact: equal", Gate.Exact, [ row "a" (num 100.) ], true);
    ("exact: one ulp off", Gate.Exact, [ row "a" (num (Float.succ 100.)) ], false);
    ("exact: empty list", Gate.Exact, [ row "l" (Json.Arr []) ], true);
    ("exact: non-empty list", Gate.Exact, [ row "l" (Json.Arr [ Json.Str "x" ]) ], false);
    ("floor: at the floor", Gate.Floor 1.25, [ row "a" (num 80.) ], true);
    ("floor: just below", Gate.Floor 1.25, [ row "a" (num (Float.pred 80.)) ], false);
    ("ceiling: at the ceiling", Gate.Ceiling 1.25, [ row "a" (num 125.) ], true);
    ("ceiling: just above", Gate.Ceiling 1.25, [ row "a" (num (Float.succ 125.)) ], false);
    ("ceiling: field missing", Gate.Ceiling 1.25, [ row "a" Json.Null ], false);
    ("rows match by key", Gate.Exact, [ row "b" (num 2.); row "a" (num 100.) ], true);
    ("no baseline row", Gate.Exact, [ row "a" (num 100.); row "c" (num 2.) ], false);
  ]

let suites =
  [
    ( "harness.gate",
      List.map
        (fun (what, bound, produced, expected) ->
          Alcotest.test_case what `Quick (fun () ->
              Alcotest.(check bool) what expected (passes bound produced)))
        cases );
  ]
