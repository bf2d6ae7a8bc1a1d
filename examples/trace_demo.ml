(* Trace demo: a small run with causal tracing on, exported as Chrome
   trace-event JSON for ui.perfetto.dev.

   A 3-machine cluster with one region (replication 3: every machine holds
   a replica), driving 10 read-modify-write transactions from a machine
   that is NOT the region's primary — so every commit's LOCK record crosses
   the fabric to the primary and at least one COMMIT-BACKUP record crosses
   to the other backup, giving the trace cross-machine flow arrows for
   both.

   Regenerate the committed artifact from the repo root with:

     dune exec examples/trace_demo.exe

   which rewrites examples/trace_10tx.json (an optional argument names
   another output file). [dune runtest] regenerates the trace and diffs it
   against the committed file, so the artifact doubles as a determinism
   oracle: any change to a simulated timing shows up there, and an
   intended one is accepted with [dune promote]. Open it at
   ui.perfetto.dev:
   machines are processes, worker/log/net tracks are threads, and the
   arrows link each record's append to its remote processing. *)

open Farm_sim
open Farm_core

let n_txs = 10
let out_file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "examples/trace_10tx.json"

let () =
  let cluster = Cluster.create ~seed:7 ~machines:3 () in
  Cluster.set_tracing cluster true;
  let region = Cluster.alloc_region_exn cluster in
  (* coordinate from a non-primary machine: LOCK must go remote *)
  let coordinator = (region.Wire.primary + 1) mod 3 in
  Fmt.pr "region %d: primary m%d, backups %a; coordinating from m%d@." region.Wire.rid
    region.Wire.primary
    Fmt.(list ~sep:(any ",") int)
    region.Wire.backups coordinator;
  let cell =
    Cluster.run_on cluster ~machine:coordinator (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:region.Wire.rid () in
              Txn.write tx a (Bytes.make 8 '\000');
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "setup: %a" Txn.pp_abort e)
  in
  for i = 1 to n_txs do
    Cluster.run_on cluster ~machine:coordinator (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let v = Int64.to_int (Bytes.get_int64_le (Txn.read tx cell ~len:8) 0) in
              let b = Bytes.create 8 in
              Bytes.set_int64_le b 0 (Int64.of_int (v + i));
              Txn.write tx cell b)
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "tx %d: %a" i Txn.pp_abort e)
  done;
  (* let lazy truncation and the background flusher drain *)
  Cluster.run_for cluster ~d:(Time.ms 5);
  let json = Cluster.trace_dump cluster in
  let oc = open_out out_file in
  output_string oc json;
  close_out oc;
  Fmt.pr "%d transactions committed from m%d; trace written to %s@." n_txs coordinator
    out_file;
  Fmt.pr "open it at ui.perfetto.dev (Trace Viewer) to see the commit pipeline@."
