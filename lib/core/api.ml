open Farm_sim

(* The public FaRM programming model (§3): strictly serializable
   distributed transactions over a global address space, plus lock-free
   single-object reads and locality hints.

   Any application thread can start a transaction at any time and becomes
   its coordinator. Reads during execution are atomic per object and see
   only committed data, but cross-object consistency is only checked at
   commit; applications must tolerate temporary inconsistency during
   execution (and abort/retry). *)

type 'a result_t = ('a, Txn.abort_reason) result

(* Run one transaction attempt: execute [f] then commit. *)
let run st ~thread (f : Txn.t -> 'a) : 'a result_t =
  let tx = Txn.begin_tx st ~thread in
  match f tx with
  | v -> (
      match Commit.commit tx with
      | Ok () -> Ok v
      | Error e -> Error e)
  | exception Txn.Abort reason ->
      tx.Txn.finished <- true;
      Txn.release_read_ts tx;
      Txn.return_allocations tx;
      Farm_obs.Obs.Span.finish tx.Txn.span ~committed:false;
      State.record_abort ~reason:(Txn.reason_index reason) st;
      Error reason

(* Retry loop with randomized backoff on conflicts; gives up after
   [attempts] (conflicts under heavy contention) or on unrecoverable
   failures. *)
let run_retry ?(attempts = 64) st ~thread f : 'a result_t =
  let rec go n =
    Proc.check_cancelled ();
    match run st ~thread f with
    | Ok v -> Ok v
    | Error Txn.Conflict when n < attempts ->
        Proc.sleep (Time.us (10 + Rng.int st.State.rng (50 * (n + 1))));
        go (n + 1)
    | Error Txn.Failed when n < attempts ->
        Proc.sleep (Time.us (500 + Rng.int st.State.rng 1_000));
        go (n + 1)
    | Error e -> Error e
  in
  go 0

let abort () = raise (Txn.Abort Txn.Explicit)

(* Lock-free read (§3): an optimized single-object read-only transaction,
   usually one RDMA read, no commit phase. *)
let read_lockfree st (addr : Addr.t) ~len =
  match Txn.read_versioned st ~addr ~len with
  | _, data -> Some data
  | exception Txn.Abort _ -> None
