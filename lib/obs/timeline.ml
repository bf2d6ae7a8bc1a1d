open Farm_sim

type kind = Cumulative | Level

type series = {
  se_name : string;
  se_kind : kind;
  se_read : unit -> int;
  mutable se_prev : int;  (* Cumulative baseline for the next delta *)
}

type row = { mutable r_at : int; r_vals : int array }

type t = {
  engine : Engine.t;
  tl_machine : int;
  mutable series : series list;  (* reverse registration order *)
  mutable rows : row array;  (* allocated at first start *)
  mutable pos : int;
  mutable tl_total : int;
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
    rows = [||];
    pos = 0;
    tl_total = 0;
    tl_running = false;
    tl_interval = 0;
  }

let add_series t ~name ~kind read =
  if t.tl_running then invalid_arg "Timeline.add_series: sampler already running";
  t.series <- { se_name = name; se_kind = kind; se_read = read; se_prev = 0 } :: t.series

let running t = t.tl_running
let series_names t = List.rev_map (fun s -> s.se_name) t.series

(* One tick: read every gauge into the next preallocated row. O(series)
   integer work; the only engine interaction is the clock read and the
   next tick's scheduling. *)
let sample t =
  let now = Time.to_ns (Engine.now t.engine) in
  let row = t.rows.(t.pos) in
  row.r_at <- now;
  let i = ref (Array.length row.r_vals) in
  (* t.series is in reverse registration order, so walking it forwards
     fills columns from the right. *)
  List.iter
    (fun s ->
      decr i;
      let cur = s.se_read () in
      (match s.se_kind with
      | Level -> row.r_vals.(!i) <- cur
      | Cumulative ->
          (* clamp: a machine restart swaps in fresh counters/CPU, which
             can only make [cur] drop below the baseline *)
          row.r_vals.(!i) <- max 0 (cur - s.se_prev));
      s.se_prev <- cur)
    t.series;
  t.pos <- (t.pos + 1) mod capacity;
  t.tl_total <- t.tl_total + 1

let start t ~interval ~until =
  if t.series = [] then invalid_arg "Timeline.start: no series registered";
  if t.tl_running then invalid_arg "Timeline.start: already running";
  let interval = Time.to_ns interval and until = Time.to_ns until in
  if interval <= 0 then invalid_arg "Timeline.start: interval must be positive";
  let ncols = List.length t.series in
  if t.rows = [||] then
    t.rows <-
      Array.init capacity (fun _ -> { r_at = 0; r_vals = Array.make ncols 0 });
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
  let n = min t.tl_total capacity in
  List.init n (fun i ->
      let r = t.rows.((t.pos - n + i + (2 * capacity)) mod capacity) in
      (r.r_at, r.r_vals))

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
