open Farm_sim

type kind = Cumulative | Level

type series = {
  se_name : string;
  se_kind : kind;
  se_read : unit -> int;
  mutable se_prev : int;  (* Cumulative baseline for the next delta *)
}

type t = {
  engine : Engine.t;
  tl_machine : int;
  mutable series : series list;  (* reverse registration order *)
  mutable ring : unit Ring.t;  (* a row: the sample's sim-time ns, then one int per series *)
  mutable tl_running : bool;
  mutable tl_interval : int;  (* ns; 0 until started *)
}

(* Rows kept; the oldest is overwritten first. *)
let capacity = 4096

let create engine ~machine =
  {
    engine;
    tl_machine = machine;
    series = [];
    ring = Ring.create ~capacity ~stride:1 ();
    tl_running = false;
    tl_interval = 0;
  }

let add_series t ~name ~kind read =
  if t.tl_running then invalid_arg "Timeline.add_series: sampler already running";
  t.series <- { se_name = name; se_kind = kind; se_read = read; se_prev = 0 } :: t.series

let running t = t.tl_running
let series_names t = List.rev_map (fun s -> s.se_name) t.series

(* One tick: read every gauge into the next row. O(series) integer work;
   the only engine interaction is the clock read and the next tick's
   scheduling. *)
let sample t =
  let r = t.ring in
  let h = Ring.push r () in
  Ring.set r h 0 (Time.to_ns (Engine.now t.engine));
  let i = ref (Ring.stride r) in
  (* t.series is in reverse registration order, so walking it forwards
     fills columns from the right. *)
  List.iter
    (fun s ->
      decr i;
      let cur = s.se_read () in
      (* a Cumulative delta is clamped: a machine restart swaps in fresh
         counters/CPU, which can only make [cur] drop below the baseline *)
      Ring.set r h !i
        (match s.se_kind with Level -> cur | Cumulative -> max 0 (cur - s.se_prev));
      s.se_prev <- cur)
    t.series

let start t ~interval ~until =
  if t.series = [] then invalid_arg "Timeline.start: no series registered";
  if t.tl_running then invalid_arg "Timeline.start: already running";
  let interval = Time.to_ns interval and until = Time.to_ns until in
  if interval <= 0 then invalid_arg "Timeline.start: interval must be positive";
  (* rows are as wide as the series registered now; a start with a new
     series set begins a fresh ring *)
  let stride = List.length t.series + 1 in
  if Ring.stride t.ring <> stride then t.ring <- Ring.create ~capacity ~stride ();
  t.tl_interval <- interval;
  t.tl_running <- true;
  (* Cumulative baselines: deltas measure from start, not from machine
     boot, so a sampler attached mid-run reports only new activity. *)
  List.iter (fun s -> s.se_prev <- s.se_read ()) t.series;
  let rec tick () =
    sample t;
    let now = Time.to_ns (Engine.now t.engine) in
    if now + interval <= until then
      Engine.schedule_in t.engine ~after:(Time.ns interval) tick
    else t.tl_running <- false
  in
  if Time.to_ns (Engine.now t.engine) + interval <= until then
    Engine.schedule_in t.engine ~after:(Time.ns interval) tick
  else t.tl_running <- false

let rows t =
  let r = t.ring in
  Ring.to_list r (fun () h ->
      (Ring.get r h 0, Array.init (Ring.stride r - 1) (fun i -> Ring.get r h (i + 1))))

let ring t = t.ring

(* {1 Merge and export} *)

let sort_by_machine timelines =
  List.sort (fun a b -> compare a.tl_machine b.tl_machine) timelines

(* Merge timestamp-aligned rows across machines by summing. All machines
   tick at the same instants, but a machine started later (or with a
   smaller ring) may miss early bins; merging goes by timestamp, not row
   index, so partial coverage still sums right. Columns go by name, so a
   machine with extra gauges (an open-loop target's queue depth) cannot
   shift the others. *)
let merge timelines =
  let timelines = sort_by_machine timelines in
  let names = match timelines with [] -> [] | t :: _ -> series_names t in
  let width = List.length names in
  let merged : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  let stamps = ref [] in
  List.iter
    (fun t ->
      let col =
        Array.of_list
          (List.map
             (fun n -> Option.value ~default:(-1) (List.find_index (String.equal n) names))
             (series_names t))
      in
      List.iter
        (fun (at, vals) ->
          let acc =
            match Hashtbl.find_opt merged at with
            | Some acc -> acc
            | None ->
                let acc = Array.make width 0 in
                Hashtbl.add merged at acc;
                stamps := at :: !stamps;
                acc
          in
          Array.iteri (fun i v -> if col.(i) >= 0 then acc.(col.(i)) <- acc.(col.(i)) + v) vals)
        (rows t))
    timelines;
  (names, List.map (fun at -> (at, Hashtbl.find merged at)) (List.sort compare !stamps))

let export_json timelines =
  let timelines = sort_by_machine timelines in
  let names, merged = merge timelines in
  let buf = Buffer.create 16384 in
  let interval = match timelines with [] -> 0 | t :: _ -> t.tl_interval in
  Printf.bprintf buf "{\"interval_ns\":%d,\"machines\":[" interval;
  List.iteri
    (fun i t -> Printf.bprintf buf "%s%d" (if i > 0 then "," else "") t.tl_machine)
    timelines;
  Buffer.add_string buf "],\"series\":[\"t_ns\"";
  List.iter (fun n -> Printf.bprintf buf ",\"%s\"" n) names;
  Buffer.add_string buf "],\"rows\":[";
  List.iteri
    (fun i (at, vals) ->
      Printf.bprintf buf "%s[%d" (if i > 0 then ",\n" else "") at;
      Array.iter (fun v -> Printf.bprintf buf ",%d" v) vals;
      Buffer.add_string buf "]")
    merged;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
