open Farm_sim

(* Causal tracing. Implementation notes, mirroring the obs spine:

   - One ring of mutable slots (ints, and a constant name), allocated
     when tracing is first enabled; recording a slice or an instant is
     ~10 stores. Rendering is deferred to [export_json].
   - The tracer knows no protocol vocabulary: its callers name each slice
     and instant (slices after their [Obs.point]).
   - The only engine interaction is reading the clock; nothing here draws
     randomness, schedules work, or blocks, so histories are identical
     with tracing on or off, and the export is a pure function of the
     recorded slots — byte-identical across replays of one seed.
   - Timestamps are sim-time ns (ints); the export renders microseconds
     by integer division, so no float formatting can perturb bytes. *)

(* {1 Thread tracks} *)

let tid_net = 32
let tid_lease = 33
let tid_recovery = 34
let tid_log ~sender = 64 + sender

let tid_name tid =
  if tid >= 64 then Printf.sprintf "log from m%d" (tid - 64)
  else if tid = tid_net then "net"
  else if tid = tid_lease then "lease"
  else if tid = tid_recovery then "recovery"
  else Printf.sprintf "worker %d" tid

(* Perfetto sorts threads by tid when no sort index is given; the layout
   above (workers, then net/lease/recovery, then per-sender log tracks)
   is already the reading order we want. *)

(* A flow id is a positional encoding of (trace context, payload tag,
   destination) — injective for machines/threads < 64 and tags < 8, so
   the sender of a record and its remote processor derive the same id
   from fields the record already carries, and distinct records never
   collide. [+ 1] keeps 0 free as the "no flow" sentinel. *)
let flow_id ~machine ~thread ~local ~tag ~dst =
  ((((((local * 64) + machine) * 64) + thread) * 8 + tag) * 64) + dst + 1

(* Names of the flow-id tag space: record tags 0-4 (the wire's
   [payload_tag] order), then the reserved message tags. The export
   decodes a slice's tag back out of its flow id so a flow-carrying slice
   (a log append or a log record's processing) reads as the record it
   carries. *)
let tag_names =
  [| "LOCK"; "COMMIT-BACKUP"; "COMMIT-PRIMARY"; "ABORT"; "TRUNCATE"; "lock-reply"; "validate"; "?" |]

let flow_tag fid = (fid - 1) / 64 mod 8

(* {1 The ring} *)

type slot = {
  mutable e_ph : int;  (* 0 slice / 1 instant *)
  mutable e_ts : int;  (* ns; a slice's start *)
  mutable e_dur : int;  (* ns; slices only *)
  mutable e_tid : int;
  mutable e_label : string;  (* a static name *)
  mutable e_arg : int;
  mutable e_txm : int;  (* trace context; e_txm = -1 means none *)
  mutable e_txt : int;
  mutable e_txl : int;
  mutable e_fin : int;  (* incoming / outgoing flow ids; 0 = none *)
  mutable e_fout : int;
}

type t = {
  engine : Engine.t;
  trc_machine : int;
  mutable trc_enabled : bool;
  capacity : int;
  mutable ring : slot array;  (* [||] until tracing is first enabled *)
  mutable pos : int;
  mutable trc_total : int;
}

let create ?(capacity = 4096) engine ~machine =
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be positive";
  { engine; trc_machine = machine; trc_enabled = false; capacity; ring = [||]; pos = 0; trc_total = 0 }

let new_slot _ =
  {
    e_ph = 0;
    e_ts = 0;
    e_dur = 0;
    e_tid = 0;
    e_label = "";
    e_arg = 0;
    e_txm = -1;
    e_txt = 0;
    e_txl = 0;
    e_fin = 0;
    e_fout = 0;
  }

let set_enabled t on =
  if on && Array.length t.ring = 0 then t.ring <- Array.init t.capacity new_slot;
  t.trc_enabled <- on

let enabled t = t.trc_enabled
let total t = t.trc_total

let alloc t =
  let s = t.ring.(t.pos) in
  t.pos <- (t.pos + 1) mod Array.length t.ring;
  t.trc_total <- t.trc_total + 1;
  s

let slice t ~tid ~label ~start ~arg ~txm ~txt ~txl ~flow_in ~flow_out =
  if t.trc_enabled then begin
    let s = alloc t in
    s.e_ph <- 0;
    s.e_ts <- start;
    s.e_dur <- Time.to_ns (Engine.now t.engine) - start;
    s.e_tid <- tid;
    s.e_label <- label;
    s.e_arg <- arg;
    s.e_txm <- txm;
    s.e_txt <- txt;
    s.e_txl <- txl;
    s.e_fin <- flow_in;
    s.e_fout <- flow_out
  end

let instant t ~tid ~name ~arg =
  if t.trc_enabled then begin
    let s = alloc t in
    s.e_ph <- 1;
    s.e_ts <- Time.to_ns (Engine.now t.engine);
    s.e_dur <- 0;
    s.e_tid <- tid;
    s.e_label <- name;
    s.e_arg <- arg;
    s.e_txm <- -1;
    s.e_txt <- 0;
    s.e_txl <- 0;
    s.e_fin <- 0;
    s.e_fout <- 0
  end

(* {1 Offline views} *)

type view = {
  v_machine : int;
  v_tid : int;
  v_name : string;
  v_ts : int;
  v_dur : int;
  v_txm : int;
  v_txt : int;
  v_txl : int;
  v_fin : int;
  v_fout : int;
}

(* A slice carrying a flow is named after the record its flow id encodes *)
let slice_name (s : slot) =
  let flow = if s.e_fout <> 0 then s.e_fout else s.e_fin in
  if flow <> 0 then s.e_label ^ " " ^ tag_names.(flow_tag flow) else s.e_label

let view_of_slot machine (s : slot) =
  {
    v_machine = machine;
    v_tid = s.e_tid;
    v_name = slice_name s;
    v_ts = s.e_ts;
    v_dur = s.e_dur;
    v_txm = s.e_txm;
    v_txt = s.e_txt;
    v_txl = s.e_txl;
    v_fin = s.e_fin;
    v_fout = s.e_fout;
  }

(* Live slots of every tracer, keyed for a total deterministic order:
   timestamp, then machine, then slot age. *)
let live_entries tracers =
  let entries = ref [] in
  List.iter
    (fun t ->
      let cap = Array.length t.ring in
      let n = min t.trc_total cap in
      for i = 0 to n - 1 do
        let s = t.ring.((t.pos - n + i + (2 * cap)) mod cap) in
        entries := (s.e_ts, t.trc_machine, i, s) :: !entries
      done)
    tracers;
  List.sort
    (fun (ts1, m1, i1, _) (ts2, m2, i2, _) ->
      if ts1 <> ts2 then compare ts1 ts2
      else if m1 <> m2 then compare m1 m2
      else compare i1 i2)
    (List.rev !entries)

let views tracers =
  List.filter_map
    (fun (_, machine, _, s) -> if s.e_ph = 0 then Some (view_of_slot machine s) else None)
    (live_entries tracers)

(* {1 Export} *)

(* Microseconds with three decimals by integer division: float formatting
   never touches the artifact, so its bytes depend only on the ints. *)
let bprint_us buf ns =
  let ns = if ns < 0 then 0 else ns in
  Printf.bprintf buf "%d.%03d" (ns / 1000) (ns mod 1000)

let bprint_common buf ~name ~ph ~ts ~pid ~tid =
  Printf.bprintf buf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":" name ph;
  bprint_us buf ts;
  Printf.bprintf buf ",\"pid\":%d,\"tid\":%d" pid tid

(* Render one slot into 1-3 trace events (the slice plus its flow
   endpoints, which Perfetto binds to the enclosing slice by emitting
   them at the slice's start timestamp on the same pid/tid). *)
let render_slot buf ~pid ~crit (s : slot) =
  if s.e_ph = 1 then begin
    bprint_common buf ~name:s.e_label ~ph:"i" ~ts:s.e_ts ~pid ~tid:s.e_tid;
    Printf.bprintf buf ",\"s\":\"t\",\"args\":{\"arg\":%d}}" s.e_arg
  end
  else begin
    bprint_common buf ~name:(slice_name s) ~ph:"X" ~ts:s.e_ts ~pid ~tid:s.e_tid;
    Printf.bprintf buf ",\"dur\":";
    bprint_us buf s.e_dur;
    Printf.bprintf buf ",\"args\":{\"arg\":%d" s.e_arg;
    if s.e_txm >= 0 then
      Printf.bprintf buf ",\"tx\":\"m%d.t%d.%d\"" s.e_txm s.e_txt s.e_txl;
    if crit then Printf.bprintf buf ",\"crit\":1";
    Printf.bprintf buf "}}";
    if s.e_fout <> 0 then begin
      Buffer.add_string buf ",\n";
      bprint_common buf ~name:"flow" ~ph:"s" ~ts:s.e_ts ~pid ~tid:s.e_tid;
      Printf.bprintf buf ",\"cat\":\"flow\",\"id\":%d}" s.e_fout
    end;
    if s.e_fin <> 0 then begin
      Buffer.add_string buf ",\n";
      bprint_common buf ~name:"flow" ~ph:"f" ~ts:s.e_ts ~pid ~tid:s.e_tid;
      Printf.bprintf buf ",\"cat\":\"flow\",\"bp\":\"e\",\"id\":%d}" s.e_fin
    end
  end

let export_json ?mark tracers =
  let entries = live_entries tracers in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit render =
    if !first then first := false else Buffer.add_string buf ",\n";
    render buf
  in
  (* Metadata: machines as processes, roles as named threads (only tids
     that actually carry events, in sorted order). *)
  List.iter
    (fun t ->
      let pid = t.trc_machine in
      emit (fun buf ->
          bprint_common buf ~name:"process_name" ~ph:"M" ~ts:0 ~pid ~tid:0;
          Printf.bprintf buf ",\"args\":{\"name\":\"machine %d\"}}" pid);
      let cap = Array.length t.ring in
      let n = min t.trc_total cap in
      let tids = ref [] in
      for i = 0 to n - 1 do
        let s = t.ring.((t.pos - n + i + (2 * cap)) mod cap) in
        if not (List.mem s.e_tid !tids) then tids := s.e_tid :: !tids
      done;
      List.iter
        (fun tid ->
          emit (fun buf ->
              bprint_common buf ~name:"thread_name" ~ph:"M" ~ts:0 ~pid ~tid;
              Printf.bprintf buf ",\"args\":{\"name\":\"%s\"}}" (tid_name tid)))
        (List.sort compare !tids))
    (List.sort (fun a b -> compare a.trc_machine b.trc_machine) tracers);
  List.iter
    (fun (_, pid, _, s) ->
      let crit =
        match mark with Some f when s.e_ph = 0 -> f (view_of_slot pid s) | _ -> false
      in
      emit (fun buf -> render_slot buf ~pid ~crit s))
    entries;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
