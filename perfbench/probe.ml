(* Outside-in layer attribution.

   Every traced call into a layer goes through [enter] / [leave], which
   keep a nesting stack of child time and child minor words, so each
   layer's *self* figures exclude the spans nested inside it (an
   [observe] made by the adversary is charged to [observe], not to the
   adversary).  Per-delivery calls number in the millions, so calls are
   aggregated into per-layer counters, never recorded one by one; a
   per-run span snapshots those counters (see [Span]).

   Neither the clock nor [Gc.minor_words] allocates, so the words a
   layer is charged are exactly the words its own code allocated. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (clock_ns ())
let[@inline] words () = int_of_float (Gc.minor_words ())

(* Time and minor words spent inside measured regions on work that is
   not the workload's own (host-speed readings, see [Reference.tick]).
   Pass meters and op latencies leave them out. *)
let excluded_ns = ref 0
let excluded_words = ref 0

(* Layer ids.  [runner] is the span around one Ensemble/Runner call;
   its self time is the simulation kernel (window construction and
   validation, mailbox walk, send emission, trace accounting). *)
let on_deliver = 0
let outgoing = 1
let on_reset = 2
let observe = 3
let state_core = 4
let adversary = 5
let runner = 6
let trace_lint = 7
let explore = 8
let layer_count = 9

let layer_names =
  [| "protocols.on_deliver"; "protocols.outgoing"; "protocols.on_reset";
     "protocols.observe"; "protocols.state_core"; "adversary.decide";
     "dsim.kernel"; "lint.trace_lint"; "mcheck.explore" |]

type counters = {
  calls : int array;
  self_ns : int array;
  self_words : int array;
}

let counters () =
  {
    calls = Array.make layer_count 0;
    self_ns = Array.make layer_count 0;
    self_words = Array.make layer_count 0;
  }

let copy c =
  { calls = Array.copy c.calls; self_ns = Array.copy c.self_ns;
    self_words = Array.copy c.self_words }

let diff a b =
  let sub x y = Array.mapi (fun i v -> v - y.(i)) x in
  { calls = sub a.calls b.calls; self_ns = sub a.self_ns b.self_ns;
    self_words = sub a.self_words b.self_words }

(* The counters [leave] charges; swapped for a scratch set while the
   traced run executes the twin pass it must not mix in. *)
let current = ref (counters ())

let max_depth = 64
let depth = ref 0
let child_ns = Array.make max_depth 0
let child_words = Array.make max_depth 0

let[@inline] enter () =
  let d = !depth + 1 in
  depth := d;
  child_ns.(d) <- 0;
  child_words.(d) <- 0

let[@inline] leave layer t0 w0 =
  let dt = now () - t0 in
  let dw = words () - w0 in
  let d = !depth in
  let c = !current in
  c.calls.(layer) <- c.calls.(layer) + 1;
  c.self_ns.(layer) <- c.self_ns.(layer) + dt - child_ns.(d);
  c.self_words.(layer) <- c.self_words.(layer) + dw - child_words.(d);
  depth := d - 1;
  child_ns.(d - 1) <- child_ns.(d - 1) + dt;
  child_words.(d - 1) <- child_words.(d - 1) + dw

(* [f x] as one call into [layer]. *)
let timed layer f x =
  enter ();
  let w0 = words () in
  let t0 = now () in
  let r = f x in
  leave layer t0 w0;
  r

(* Run [f] with its layer charges diverted into fresh counters, which
   are returned beside its result; the enclosing span is not charged
   for it either.  Used for work the traced run does besides the
   measured pass: the twin replay, the fingerprint, a deliveries
   count. *)
let isolated f =
  let saved = !current in
  let d = !depth in
  let saved_ns = child_ns.(d) and saved_words = child_words.(d) in
  let scratch = counters () in
  current := scratch;
  let r = f () in
  current := saved;
  child_ns.(d) <- saved_ns;
  child_words.(d) <- saved_words;
  (r, scratch)

(* Per-run spans: one record per seed-run (or per exploration), kept
   in memory and written out as JSON Lines when the benchmark ends. *)
module Span = struct
  type t = {
    name : string;
    id : int;
    start_ns : int;
    end_ns : int;
    layers : counters;
  }

  let recorded : t list ref = ref []

  (* Runs [f] as one span named [name]; the layer counters charged
     while it ran are attached to the record. *)
  let record ~name ~id f =
    let before = copy !current in
    let start_ns = now () in
    let r = f () in
    let end_ns = now () in
    recorded :=
      { name; id; start_ns; end_ns; layers = diff !current before } :: !recorded;
    r

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc "{\"span\":%S,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d"
          s.name s.id s.start_ns s.end_ns;
        Array.iteri
          (fun l name ->
            if s.layers.calls.(l) > 0 || s.layers.self_ns.(l) > 0 then
              Printf.fprintf oc ",%S:{\"calls\":%d,\"self_ns\":%d,\"self_words\":%d}"
                name s.layers.calls.(l) s.layers.self_ns.(l)
                s.layers.self_words.(l))
          layer_names;
        output_string oc "}\n")
      (List.rev !recorded);
    close_out oc
end

(* Op latencies of one pass, in ns.  Ops too short to time one by one
   are timed in blocks of [stride] consecutive ops; a block contributes
   its mean op latency. *)
module Lat = struct
  type t = {
    stride : int;
    mutable samples : int array;
    mutable count : int;
    mutable last : int;  (** start of the open block; 0 when none *)
    mutable pending : int;  (** ops finished in the open block *)
    mutable last_excluded : int;  (** [excluded_ns] at [last] *)
  }

  let create ?(stride = 1) () =
    {
      stride;
      samples = Array.make 4096 0;
      count = 0;
      last = 0;
      pending = 0;
      last_excluded = 0;
    }

  let add t v =
    if t.count = Array.length t.samples then begin
      let bigger = Array.make (2 * t.count) 0 in
      Array.blit t.samples 0 bigger 0 t.count;
      t.samples <- bigger
    end;
    t.samples.(t.count) <- v;
    t.count <- t.count + 1

  (* Closed-loop op clock: called as each op starts, so it also marks
     the end of the previous op of the same run. *)
  let stamp t =
    if t.last = 0 then begin
      t.last <- now ();
      t.last_excluded <- !excluded_ns
    end
    else begin
      t.pending <- t.pending + 1;
      if t.pending >= t.stride then begin
        let time = now () in
        add t ((time - t.last - (!excluded_ns - t.last_excluded)) / t.pending);
        t.last <- time;
        t.last_excluded <- !excluded_ns;
        t.pending <- 0
      end
    end

  (* End of a run: closes its last op. *)
  let close t =
    if t.last > 0 then
      add t ((now () - t.last - (!excluded_ns - t.last_excluded)) / (t.pending + 1));
    t.last <- 0;
    t.pending <- 0

  (* Nearest-rank median and 90th percentile of the samples, which are
     then dropped. *)
  let take_p50_p90 t =
    let a = Array.sub t.samples 0 t.count in
    Array.sort Int.compare a;
    t.count <- 0;
    let rank q =
      if Array.length a = 0 then 0
      else a.(max 0 (int_of_float (Float.ceil (q *. float_of_int (Array.length a))) - 1))
    in
    (rank 0.5, rank 0.9)
end
