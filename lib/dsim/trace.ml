type event =
  | Sent of { src : int; dst : int; msg_id : int; depth : int }
  | Delivered of { src : int; dst : int; msg_id : int; depth : int }
  | Dropped of { msg_id : int }
  | Reset_done of { pid : int }
  | Crashed of { pid : int }
  | Decided of { pid : int; value : bool; step : int; window : int; chain_depth : int }
  | Window_closed of { index : int }

type sink =
  | Memory
  | Chunks of { emit : string -> unit; chunk_bytes : int }

let default_chunk_bytes = 65536

let chunks ?(chunk_bytes = default_chunk_bytes) emit =
  if chunk_bytes <= 0 then invalid_arg "Trace.chunks: chunk_bytes must be positive";
  Chunks { emit; chunk_bytes }

let to_buffer ?chunk_bytes buffer = chunks ?chunk_bytes (Buffer.add_string buffer)
let to_channel ?chunk_bytes oc = chunks ?chunk_bytes (output_string oc)

(* Retained event storage behind the sink.  [Mem] keeps every event and
   only conses: its fingerprint is computed from the retained list when
   asked for.  [Stream] renders each event into a scratch buffer flushed
   to the consumer in chunks, so multi-million-event runs keep O(chunk)
   live heap; its events leave the heap, so it hashes their text as it
   passes. *)
type store =
  | Mem of { mutable events_rev : event list }
  | Stream of {
      scratch : Buffer.t;
      chunk_bytes : int;
      emit : string -> unit;
      mutable hash : int64;  (* FNV-1a over the text streamed so far *)
    }

type t = {
  record_events : bool;
  store : store;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable resets : int;
  mutable crashes : int;
  mutable windows_closed : int;
  mutable decisions_rev : (int * bool * int * int * int) list;
}

(* FNV-1a, same constants as Prng.Stream.derive_name: stable across
   OCaml versions and word sizes, and incremental — hashing a run
   event-by-event gives the same digest whether the events were
   retained in memory or streamed out, which is what lets the streamed
   sink prove bit-identity without holding the run in the heap. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let store_of_sink = function
  | Memory -> Mem { events_rev = [] }
  | Chunks { emit; chunk_bytes } ->
      let scratch = Buffer.create (min chunk_bytes 4096) in
      Stream { scratch; chunk_bytes; emit; hash = fnv_offset }

let create ?(sink = Memory) ~record_events () =
  {
    record_events;
    store = store_of_sink sink;
    sent = 0;
    delivered = 0;
    dropped = 0;
    resets = 0;
    crashes = 0;
    windows_closed = 0;
    decisions_rev = [];
  }

let copy t =
  {
    t with
    store =
      (match t.store with
      | Mem m -> Mem { events_rev = m.events_rev }
      | Stream s ->
          (* The copy keeps its own scratch but shares the downstream
             consumer: interleaving is on the caller.  Lookahead forks
             record no events, so this path only runs when a streamed
             trace is copied explicitly. *)
          let scratch = Buffer.create (Buffer.length s.scratch + 64) in
          Buffer.add_buffer scratch s.scratch;
          Stream { s with scratch });
  }

(* One line per event, identical text to [pp_event] plus a newline:
   the rendered stream is what the chunked sink emits and what the
   fingerprint hashes, for every store. *)
let render b = function
  | Sent { src; dst; msg_id; depth } ->
      Printf.bprintf b "sent #%d %d->%d depth=%d\n" msg_id src dst depth
  | Delivered { src; dst; msg_id; depth } ->
      Printf.bprintf b "delivered #%d %d->%d depth=%d\n" msg_id src dst depth
  | Dropped { msg_id } -> Printf.bprintf b "dropped #%d\n" msg_id
  | Reset_done { pid } -> Printf.bprintf b "reset p%d\n" pid
  | Crashed { pid } -> Printf.bprintf b "crashed p%d\n" pid
  | Decided { pid; value; step; window; chain_depth } ->
      Printf.bprintf b "decided p%d=%d at step %d window %d chain %d\n" pid
        (if value then 1 else 0)
        step window chain_depth
  | Window_closed { index } -> Printf.bprintf b "window %d closed\n" index

let hash_range hash b ~from ~til =
  let h = ref hash in
  for i = from to til - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth b i)))) fnv_prime
  done;
  !h

let flush t =
  match t.store with
  | Mem _ -> ()
  | Stream s ->
      if Buffer.length s.scratch > 0 then begin
        s.emit (Buffer.contents s.scratch);
        Buffer.clear s.scratch
      end

(* Only reached when [record_events] is on, so the per-delivery hot
   path of plain sweeps never renders or hashes anything, and a
   recorded in-memory run pays one cons per event. *)
let note_event t event =
  match t.store with
  | Mem m -> m.events_rev <- event :: m.events_rev
  | Stream s ->
      let before = Buffer.length s.scratch in
      render s.scratch event;
      s.hash <- hash_range s.hash s.scratch ~from:before ~til:(Buffer.length s.scratch);
      if Buffer.length s.scratch >= s.chunk_bytes then flush t

let note t event = if t.record_events then note_event t event

(* The per-delivery entry point: the engine passes the fields, so the
   [Delivered] block is only built when events are kept. *)
let record_delivered t ~src ~dst ~msg_id ~depth =
  t.delivered <- t.delivered + 1;
  if t.record_events then note_event t (Delivered { src; dst; msg_id; depth })

let record t event =
  match event with
  | Delivered { src; dst; msg_id; depth } -> record_delivered t ~src ~dst ~msg_id ~depth
  | Sent _ -> t.sent <- t.sent + 1; note t event
  | Dropped _ -> t.dropped <- t.dropped + 1; note t event
  | Reset_done _ -> t.resets <- t.resets + 1; note t event
  | Crashed _ -> t.crashes <- t.crashes + 1; note t event
  | Window_closed _ -> t.windows_closed <- t.windows_closed + 1; note t event
  | Decided { pid; value; step; window; chain_depth } ->
      t.decisions_rev <- (pid, value, step, window, chain_depth) :: t.decisions_rev;
      note t event

(* Bulk accounting for a lazily-expanded broadcast: the engine reserves
   ids [first .. first + count - 1] (id = first + dst) in one step, so
   the counter bumps once by [count]; the per-destination [Sent] events
   are only materialized when the trace keeps event lists at all. *)
let record_broadcast t ~src ~first ~count ~depth =
  t.sent <- t.sent + count;
  if t.record_events then
    for dst = 0 to count - 1 do
      note_event t (Sent { src; dst; msg_id = first + dst; depth })
    done

let events t =
  match t.store with Mem m -> List.rev m.events_rev | Stream _ -> []

(* On demand for [Mem]: render and hash the retained list, one scratch
   buffer reused across events.  Only tests and differentials ask. *)
let events_fingerprint t =
  let hash =
    match t.store with
    | Stream s -> s.hash
    | Mem m ->
        let b = Buffer.create 64 in
        List.fold_left
          (fun h event ->
            Buffer.clear b;
            render b event;
            hash_range h b ~from:0 ~til:(Buffer.length b))
          fnv_offset (List.rev m.events_rev)
  in
  Printf.sprintf "%016Lx" hash

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let resets t = t.resets
let crashes t = t.crashes
let windows_closed t = t.windows_closed
let decisions t = List.rev t.decisions_rev

let first_decision t =
  match List.rev t.decisions_rev with [] -> None | d :: _ -> Some d

let pp_event ppf = function
  | Sent { src; dst; msg_id; depth } ->
      Format.fprintf ppf "sent #%d %d->%d depth=%d" msg_id src dst depth
  | Delivered { src; dst; msg_id; depth } ->
      Format.fprintf ppf "delivered #%d %d->%d depth=%d" msg_id src dst depth
  | Dropped { msg_id } -> Format.fprintf ppf "dropped #%d" msg_id
  | Reset_done { pid } -> Format.fprintf ppf "reset p%d" pid
  | Crashed { pid } -> Format.fprintf ppf "crashed p%d" pid
  | Decided { pid; value; step; window; chain_depth } ->
      Format.fprintf ppf "decided p%d=%d at step %d window %d chain %d" pid
        (if value then 1 else 0)
        step window chain_depth
  | Window_closed { index } -> Format.fprintf ppf "window %d closed" index

let pp ppf t =
  Format.fprintf ppf
    "sent=%d delivered=%d dropped=%d resets=%d crashes=%d windows=%d decisions=%d"
    t.sent t.delivered t.dropped t.resets t.crashes t.windows_closed
    (List.length t.decisions_rev)
