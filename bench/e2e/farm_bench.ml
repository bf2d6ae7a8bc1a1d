(* farm_bench: one seeded command that measures the simulator's host speed,
   the simulated FaRM cluster's performance, and each layer's cost, on four
   workloads.

     farm_bench [--seed N] [--workload W]... [--trace 0|1] [--seconds S] [--json FILE]
     farm_bench compare BASE.json NEW.json

   Each repetition of a workload runs in a fresh child process (this
   executable re-executed with --rep), so heap peaks and GC state never leak
   between repetitions or workloads. Repetitions continue until --seconds
   of wall-clock time have passed (at least 3; with --trace 1, at least 2
   untraced/traced pairs, plus one run of the layer probes). Host metrics
   are the median over repetitions; simulated metrics must be identical in
   every repetition, traced or not.

   Prints every metric as "workload metric value unit", then one JSON line
   {"correct", "attempted", "failed", "metrics"} holding the end-to-end
   metrics (the per-layer ones with --trace 1). Exits 1 if a correctness
   check fails. *)

open Rep

let end_to_end =
  [ "setup_s"; "host_ops_per_s"; "peak_heap_mb"; "sim_ops_per_us"; "sim_p50_us"; "sim_tail_us";
    "op_success_frac" ]

let wall_s = Unix.gettimeofday
let min_reps = 3
let min_traced_pairs = 2
let max_reps = 40

(* {1 Child processes} *)

(* Run this executable with [args]; its last stdout line is a JSON value. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" (String.split_on_char '\n' out)
  in
  match status with
  | Unix.WEXITED 0 -> ( try Ok (Json.of_string last) with Json.Parse_error e -> Error e)
  | Unix.WEXITED n -> Error (Printf.sprintf "exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "killed by signal %d" n)

let rep_child (w : Workloads.t) ~seed ~traced =
  let args =
    [ "--rep"; w.name; "--seed"; string_of_int seed; "--trace"; (if traced then "1" else "0") ]
  in
  let t0 = wall_s () in
  let r =
    match child args with
    | Ok j -> (
        try Rep.of_json j
        with Json.Parse_error e ->
          { gates = [ w.name ^ ": unreadable repetition: " ^ e ]; attempted = 0; metrics = [] })
    | Error e -> { gates = [ w.name ^ ": repetition " ^ e ]; attempted = 0; metrics = [] }
  in
  Printf.eprintf "  %s rep%s: %.2f s%s\n%!" w.name (if traced then " (traced)" else "") (wall_s () -. t0)
    (if r.gates = [] then "" else " FAILED");
  r

let probes_child ~seed =
  match child [ "--probes"; "--seed"; string_of_int seed ] with
  | Ok j -> (
      try Ok ((Rep.of_json j).metrics) with Json.Parse_error e -> Error ("unreadable probes: " ^ e))
  | Error e -> Error ("probes " ^ e)

(* {1 One workload} *)

type outcome = { w_gates : string list; w_attempted : int; w_metrics : metric list }

(* Fold repetitions into one value per metric: exact metrics must agree
   across every repetition (untraced and traced alike) and are reported
   once; host metrics are the median over untraced repetitions, or over
   traced ones for metrics only those report. *)
let aggregate ~untraced ~traced =
  let all = untraced @ traced in
  let gates = ref (List.concat_map (fun r -> r.gates) all) in
  let names =
    List.fold_left
      (fun acc r ->
        List.fold_left (fun acc m -> if List.mem m.name acc then acc else acc @ [ m.name ]) acc r.metrics)
      [] all
  in
  let values reps name = List.filter_map (fun r -> List.find_opt (fun m -> m.name = name) r.metrics) reps in
  let metrics =
    List.map
      (fun name ->
        let from = match values untraced name with [] -> values traced name | l -> l in
        let first = List.hd from in
        if first.exact then begin
          let distinct = List.sort_uniq compare (List.map (fun m -> m.value) (values all name)) in
          if List.length distinct > 1 then
            gates :=
              !gates
              @ [ Printf.sprintf "%s differs across repetitions: %s" name
                    (String.concat " vs " (List.map Json.string_of_num distinct)) ];
          first
        end
        else { first with value = median (List.map (fun m -> m.value) from) })
      names
  in
  (!gates, metrics)

let run_workload (w : Workloads.t) ~seed ~seconds ~traced =
  let t0 = wall_s () in
  let rec loop untraced traced_reps =
    let untraced = untraced @ [ rep_child w ~seed ~traced:false ] in
    let traced_reps = if traced then traced_reps @ [ rep_child w ~seed ~traced:true ] else traced_reps in
    let n = List.length untraced in
    let enough = n >= if traced then min_traced_pairs else min_reps in
    if (enough && wall_s () -. t0 >= seconds) || n >= max_reps then (untraced, traced_reps)
    else loop untraced traced_reps
  in
  let untraced, traced_reps = loop [] [] in
  let gates, metrics = aggregate ~untraced ~traced:traced_reps in
  let gates, metrics =
    if not traced then (gates, metrics)
    else
      let run_s reps =
        median
          (List.concat_map
             (fun r ->
               List.filter_map
                 (fun m -> if m.name = "workloads.run_s" then Some m.value else None)
                 r.metrics)
             reps)
      in
      let overhead =
        { name = "obs.trace_overhead_frac"; value = (run_s traced_reps /. run_s untraced) -. 1.;
          unit_ = "fraction"; exact = false }
      in
      match probes_child ~seed with
      | Ok probes -> (gates, metrics @ (overhead :: probes))
      | Error e -> (gates @ [ w.name ^ ": " ^ e ], metrics @ [ overhead ])
  in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 (untraced @ traced_reps) in
  { w_gates = gates; w_attempted = attempted; w_metrics = metrics }

(* {1 Reports} *)

let report_json ~seed ~traced results =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ("traced", Json.Bool traced);
      ( "workloads",
        Json.Obj
          (List.map
             (fun ((w : Workloads.t), o) ->
               ( w.name,
                 Json.Obj
                   [
                     ("gates", Json.Arr (List.map (fun g -> Json.Str g) o.w_gates));
                     ( "metrics",
                       Json.Obj
                         (List.map
                            (fun m ->
                              ( m.name,
                                Json.Obj
                                  [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_);
                                    ("exact", Json.Bool m.exact) ] ))
                            o.w_metrics) );
                   ] ))
             results) );
    ]

let bench ~seed ~workloads ~seconds ~traced ~json =
  let results =
    List.map
      (fun (w : Workloads.t) ->
        Printf.eprintf "%s (seed %d%s)\n%!" w.name seed (if traced then ", traced" else "");
        (w, run_workload w ~seed ~seconds ~traced))
      workloads
  in
  List.iter
    (fun ((w : Workloads.t), o) ->
      List.iter (fun g -> Printf.printf "FAILED %s\n" g) o.w_gates;
      List.iter
        (fun m -> Printf.printf "%s %s %s %s\n" w.name m.name (Json.string_of_num m.value) m.unit_)
        o.w_metrics)
    results;
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Json.to_string (report_json ~seed ~traced results) ^ "\n");
      close_out oc)
    json;
  let correct = List.for_all (fun (_, o) -> o.w_gates = []) results in
  let attempted = List.fold_left (fun a (_, o) -> a + o.w_attempted) 0 results in
  let single = List.length results = 1 in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int (max 1 attempted)));
        (* a failed check condemns every operation of the run *)
        ("failed", Json.Num (float_of_int (if correct then 0 else max 1 attempted)));
        ( "metrics",
          Json.Obj
            (List.concat_map
               (fun ((w : Workloads.t), o) ->
                 List.filter_map
                   (fun m ->
                     if List.mem m.name end_to_end <> traced then
                       Some
                         ( (if single then m.name else w.name ^ "." ^ m.name),
                           Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] )
                     else None)
                   o.w_metrics)
               results) );
      ]
  in
  print_endline (Json.to_string line);
  if not correct then exit 1

(* {1 compare} *)

(* One verdict per (workload, metric) present in both reports, with the
   direction and bounds of BENCHMARK.json in the current directory. Exact
   metrics compare exactly; host metrics with a bound are "same" within it;
   host metrics without one are unresolved unless equal. Exits 1 if any
   verdict is "worse". *)
let compare_reports base_file new_file =
  let spec = Json.read_file "BENCHMARK.json" in
  let direction =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          ( Json.to_str (Json.member "better" m) = "higher",
            match Json.member "bound" m with Json.Num b -> Some b | _ -> None ) ))
      (Json.to_list (Json.member "end_to_end" spec) @ Json.to_list (Json.member "per_layer" spec))
  in
  let workloads f = Json.to_assoc (Json.member "workloads" (Json.read_file f)) in
  let base = workloads base_file and next = workloads new_file in
  let worse = ref 0 in
  List.iter
    (fun (wname, b) ->
      match List.assoc_opt wname next with
      | None -> ()
      | Some n ->
          let nm = Json.to_assoc (Json.member "metrics" n) in
          List.iter
            (fun (mname, bm) ->
              match (List.assoc_opt mname nm, List.assoc_opt mname direction) with
              | Some m, Some (higher, bound) ->
                  let bv = Json.to_num (Json.member "value" bm)
                  and nv = Json.to_num (Json.member "value" m) in
                  let exact = Json.to_bool (Json.member "exact" bm) in
                  (* signed change, positive = better *)
                  let gain = if higher then nv -. bv else bv -. nv in
                  let verdict =
                    if nv = bv then "same"
                    else if exact then if gain > 0. then "better" else "worse"
                    else
                      match bound with
                      | None -> "unresolved"
                      | Some bound ->
                          let rel = if bv = 0. then Float.infinity else Float.abs (nv -. bv) /. Float.abs bv in
                          if rel <= bound then "same" else if gain > 0. then "better" else "worse"
                  in
                  if verdict = "worse" then incr worse;
                  Printf.printf "%s %s %s %s -> %s\n" wname mname verdict (Json.string_of_num bv)
                    (Json.string_of_num nv)
              | _ -> ())
            (Json.to_assoc (Json.member "metrics" b)))
    base;
  if !worse > 0 then exit 1

(* {1 Command line} *)

let () =
  let seed = ref 42 and names = ref [] and traced = ref false and seconds = ref 12. in
  let json = ref None and rep = ref None and probes = ref false in
  let anon = ref [] in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "N  seed of every generator (default 42)");
      ("--workload", Arg.String (fun w -> names := !names @ [ w ]),
       "W  run this workload (repeatable; default all: "
       ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all) ^ ")");
      ( "--trace",
        Arg.Int (fun t -> traced := t <> 0),
        "0|1  1: also run traced repetitions and the layer probes; report per-layer metrics" );
      ("--seconds", Arg.Set_float seconds, "S  keep repeating each workload for S seconds (default 12)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  write the full report to FILE");
      ("--rep", Arg.String (fun w -> rep := Some w), "W  (internal) run one repetition of W");
      ("--probes", Arg.Set probes, " (internal) run the layer probes");
    ]
  in
  let usage = "farm_bench [options] | farm_bench compare BASE.json NEW.json" in
  (try Arg.parse_argv Sys.argv (Arg.align specs) (fun a -> anon := !anon @ [ a ]) usage with
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2);
  let find name =
    match Workloads.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "farm_bench: unknown workload %s\n" name;
        exit 2
  in
  match (!anon, !rep, !probes) with
  | [ "compare"; base; next ], None, false -> compare_reports base next
  | [], Some name, false ->
      let r = Rep.run (find name) ~seed:!seed ~traced:!traced in
      print_endline (Json.to_string (Rep.to_json r))
  | [], None, true ->
      print_endline
        (Json.to_string (Rep.to_json { gates = []; attempted = 0; metrics = Probes.run ~seed:!seed }))
  | [], None, false ->
      let workloads = match !names with [] -> Workloads.all | l -> List.map find l in
      bench ~seed:!seed ~workloads ~seconds:!seconds ~traced:!traced ~json:!json
  | _ ->
      prerr_endline usage;
      exit 2
