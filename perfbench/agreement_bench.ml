(* End-to-end agreement benchmark.

     agreement_bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs untraced passes back to back until S seconds have been measured
   and prints the end-to-end metrics; set-up runs twice before the first
   pass and twice after every pass (median = setup_s).  The host-speed
   reference kernel runs right before and right after every untraced
   pass (and inside the long bracha and mcheck passes); set-up times and
   pass rates are reported at the nominal host speed it defines (see
   Reference).  With --trace 1
   it alternates untraced and traced passes over the same seed-runs
   instead, checks that both simulate identically, and prints the
   per-layer metrics.
   Every pass is checked (the gate); the last stdout line is one JSON
   object {correct, attempted, failed, metrics}.  Exit 0 when every
   check passed, 1 when one failed, 2 on bad arguments.  See
   BENCHMARK.json for the workloads and metric definitions. *)

(* Set-up samples taken before the first pass and after every round of
   passes, so that the median spans the whole run.  Each starts from a
   collected heap, so it is not charged for the garbage a pass left. *)
let setup_repeats = 2

(* Each host-speed reading around a pass spends up to 1/[reference_share]
   of the previous pass's time on the reference kernel. *)
let reference_share = 40

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ms ns = float_of_int ns /. 1e6
let seconds_of ns = float_of_int ns /. 1e9

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-42s %18.6f %s\n" x.name x.value x.unit_)
    metrics;
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name (json_number x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

type traced = {
  pass : Workloads.pass;
  counters : Probe.counters;  (** layer charges of this pass *)
  top_ns : int;  (** time inside top-level spans *)
  minor_gcs : int;
  major_gcs : int;
}

(* What the passes of one run share for the summary. *)
type totals = {
  mutable passes : Workloads.pass list;  (** untraced, newest first *)
  mutable references : int list;
      (** host-speed reading of each untraced pass (the median reference
          kernel ns sampled before, during and after it), parallel to
          [passes] *)
  mutable latencies : (int * int) list;  (** op p50 and p90 ns per untraced pass *)
  mutable traced : traced list;
  mutable failures : string list;
  mutable attempted : int;
}

let record_failures totals (p : Workloads.pass) =
  totals.attempted <- totals.attempted + p.units;
  totals.failures <- p.failures @ totals.failures

let best f xs = List.fold_left (fun a x -> Float.min a (f x)) Float.infinity xs
let best_wall passes = best (fun (p : Workloads.pass) -> seconds_of p.wall_ns) passes

let rate f (p : Workloads.pass) = float_of_int (f p) /. seconds_of p.wall_ns

(* Median over the untraced passes of their throughput as measured. *)
let raw_rate f (totals : totals) = median (List.map (rate f) totals.passes)

(* Median over the untraced passes of their throughput at the nominal
   host speed: each pass is scaled by the reference kernel time measured
   around it.  Contention from other tenants of a shared host comes in
   phases of seconds to minutes and can slow this allocation-heavy work
   by up to ~2x; it slows the reference kernel alike, so the scaled
   figure reads the code rather than the phase (perfbench/METRICS.md). *)
let normalised_rate f (totals : totals) =
  median
    (List.map2
       (fun p reference_ns -> Reference.normalise (rate f p) ~reference_ns)
       totals.passes totals.references)

let end_to_end ~setup (totals : totals) =
  let passes = totals.passes in
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  let words = sum (fun p -> p.minor_words) in
  [
    m "setup_s" "s" setup;
    m "norm_ops_per_s" "1/s" (normalised_rate (fun p -> p.ops) totals);
    m "norm_deliveries_per_s" "1/s" (normalised_rate (fun p -> p.deliveries) totals);
    m "minor_words_per_delivery" "words" (ratio words (sum (fun p -> p.deliveries)));
    m "minor_words_per_op" "words" (ratio words (sum (fun p -> p.ops)));
    m "major_words_per_op" "words" (ratio (sum (fun p -> p.major_words)) (sum (fun p -> p.ops)));
  ]

(* Per-layer metrics of the traced passes: counts from the first (all
   traced passes repeat the same seed-runs, so counts are identical),
   times as medians. *)
let per_layer (totals : totals) =
  let traced = List.rev totals.traced in
  let t0 = List.hd traced in
  let first = t0.pass and c0 = t0.counters in
  let med f = median (List.map f traced) in
  let self_ms l = med (fun t -> ms t.counters.self_ns.(l)) in
  let top_ms = med (fun t -> ms t.top_ns) in
  let deliveries = first.Workloads.deliveries in
  let per_delivery x = if deliveries = 0 then 0.0 else x /. float_of_int deliveries in
  let layer l =
    let name = Probe.layer_names.(l) in
    let self = self_ms l in
    [
      m (name ^ ".calls") "count" (float_of_int c0.calls.(l));
      m (name ^ ".self_ms") "ms" self;
      m (name ^ ".minor_words") "words" (float_of_int c0.self_words.(l));
      m (name ^ ".share") "ratio" (if top_ms = 0.0 then 0.0 else self /. top_ms);
      m (name ^ ".ns_per_delivery") "ns" (per_delivery (self *. 1e6));
      m (name ^ ".words_per_delivery") "words"
        (per_delivery (float_of_int c0.self_words.(l)));
    ]
  in
  let on_deliver_calls = c0.calls.(Probe.on_deliver) in
  let lint_calls = c0.calls.(Probe.trace_lint) in
  let untraced_wall = best_wall totals.passes in
  let traced_wall = best_wall (List.map (fun t -> t.pass) traced) in
  List.concat_map layer (List.init Probe.layer_count Fun.id)
  @ [
      m "protocols.on_deliver.ns_per_call" "ns"
        (if on_deliver_calls = 0 then 0.0
         else self_ms Probe.on_deliver *. 1e6 /. float_of_int on_deliver_calls);
      m "dsim.trace.events" "count" (float_of_int first.events);
      m "dsim.trace.record_ms" "ms"
        (if first.events = 0 then 0.0
         else self_ms Probe.runner -. med (fun t -> ms t.pass.twin_kernel_ns));
      m "lint.trace_lint.ns_per_event" "ns"
        (if first.events = 0 || lint_calls = 0 then 0.0
         else self_ms Probe.trace_lint *. 1e6 /. float_of_int first.events);
      m "lint.trace_lint.violations" "count"
        (if lint_calls = 0 then 0.0 else float_of_int first.violations);
      m "mcheck.states" "count" (float_of_int first.states);
      m "mcheck.candidates" "count" (float_of_int first.candidates);
      m "mcheck.dedup_hits" "count" (float_of_int first.dedup_hits);
      m "mcheck.symmetry_hits" "count" (float_of_int first.symmetry_hits);
      m "mcheck.useful_ratio" "ratio" (ratio first.states first.candidates);
      m "dsim.runner.windows" "count" (float_of_int first.windows);
      m "dsim.runner.steps" "count" (float_of_int first.steps);
      m "dsim.runner.deliveries" "count" (float_of_int deliveries);
      m "gc.minor_collections" "count" (float_of_int t0.minor_gcs);
      m "gc.major_collections" "count" (float_of_int t0.major_gcs);
      m "gc.peak_heap_mb" "MB"
        (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6);
      m "op_us_p50" "us" (best (fun (p50, _) -> float_of_int p50 /. 1e3) totals.latencies);
      m "op_us_p90" "us" (best (fun (_, p90) -> float_of_int p90 /. 1e3) totals.latencies);
      m "raw_ops_per_s" "1/s" (raw_rate (fun p -> p.ops) totals);
      m "raw_deliveries_per_s" "1/s" (raw_rate (fun p -> p.deliveries) totals);
      m "reference_ms" "ms" (median (List.map ms totals.references));
      m "traced_wall_s" "s" traced_wall;
      m "trace_overhead_frac" "ratio" ((traced_wall /. untraced_wall) -. 1.0);
      m "failed_frac" "ratio" (ratio (List.length totals.failures) totals.attempted);
    ]

(* Identity between a traced pass and the untraced pass over the same
   seed-runs, and between the probe's boundary counts and the engine's
   own counters. *)
let identity_failures ~name (u : Workloads.pass) (t : Workloads.pass) (c : Probe.counters)
    ~top_ns =
  let check ok what = if ok then [] else [ Printf.sprintf "%s: %s" name what ] in
  let adversary_expected = if t.windows > 0 then t.windows else t.steps in
  let self_sum = Array.fold_left ( + ) 0 c.self_ns in
  check (String.equal u.digest t.digest) "traced pass simulated differently from untraced"
  @ check
      (t.deliveries = c.calls.(Probe.on_deliver))
      (Printf.sprintf "on_deliver calls %d <> delivered %d" c.calls.(Probe.on_deliver)
         t.deliveries)
  @ check
      (c.calls.(Probe.adversary) = adversary_expected
      || (t.windows = 0 && t.steps = 0))
      (Printf.sprintf "adversary calls %d <> windows/steps %d" c.calls.(Probe.adversary)
         adversary_expected)
  @ check
      (self_sum = top_ns && !Probe.depth = 0 && top_ns <= t.wall_ns
      && Array.for_all (fun v -> v >= 0) c.self_ns)
      (Printf.sprintf "layer self times (sum %d ns) do not nest in the %d ns of top-level spans"
         self_sum top_ns)

let run ~(workload : Workloads.t) ~seed ~seconds ~trace =
  let setup_samples = ref [] and raw_setup_samples = ref [] in
  (* [reference_ns]: the latest host-speed reading. *)
  let set_up ~reference_ns =
    for _ = 1 to setup_repeats do
      Gc.full_major ();
      let t0 = Probe.now () in
      workload.setup ~seed;
      let s = seconds_of (Probe.now () - t0) in
      raw_setup_samples := s :: !raw_setup_samples;
      setup_samples := Reference.normalise_time s ~reference_ns :: !setup_samples
    done
  in
  let reading () =
    Reference.read ~budget_ns:0;
    Reference.take ()
  in
  set_up ~reference_ns:(reading ());
  let lat = Probe.Lat.create ~stride:workload.op_stride () in
  let totals =
    {
      passes = [];
      references = [];
      latencies = [];
      traced = [];
      failures = [];
      attempted = 0;
    }
  in
  let start = Probe.now () in
  let cursor = ref 0 in
  let elapsed () = seconds_of (Probe.now () - start) in
  (* Stop when the next round would end nearer past the deadline than
     short of it. *)
  let round = ref 0.0 in
  let reference_budget = ref 0 in
  while totals.passes = [] || elapsed () +. (!round /. 2.0) < float_of_int seconds do
    let round_start = elapsed () in
    Reference.read ~budget_ns:!reference_budget;
    let u = workload.pass ~seed ~from:!cursor ~traced:false ~lat in
    Reference.read ~budget_ns:!reference_budget;
    let reference_ns = Reference.take () in
    reference_budget := u.wall_ns / reference_share;
    record_failures totals u;
    totals.passes <- u :: totals.passes;
    totals.references <- reference_ns :: totals.references;
    totals.latencies <- Probe.Lat.take_p50_p90 lat :: totals.latencies;
    if trace then begin
      let before = Probe.copy !Probe.current in
      let top0 = Probe.child_ns.(0) in
      let gc0 = Gc.quick_stat () in
      let t = workload.pass ~seed ~from:!cursor ~traced:true ~lat in
      let gc1 = Gc.quick_stat () in
      let c = Probe.diff !Probe.current before in
      let top_ns = Probe.child_ns.(0) - top0 in
      record_failures totals t;
      totals.failures <-
        identity_failures ~name:workload.name u t c ~top_ns @ totals.failures;
      totals.traced <-
        {
          pass = t;
          counters = c;
          top_ns;
          minor_gcs = gc1.minor_collections - gc0.minor_collections;
          major_gcs = gc1.major_collections - gc0.major_collections;
        }
        :: totals.traced
    end
    else cursor := u.next;
    round := elapsed () -. round_start;
    set_up ~reference_ns:(if trace then reading () else reference_ns)
  done;
  let first = List.hd (List.rev totals.passes) in
  Printf.printf "digest %s seed=%d units=%d md5=%s\n" workload.name seed first.units
    (Digest.to_hex (Digest.string first.digest));
  if not trace then
    Printf.printf "host reference_ms=%.3f raw setup_s=%.6f ops_per_s=%.6g deliveries_per_s=%.6g\n"
      (median (List.map ms totals.references)) (median !raw_setup_samples)
      (raw_rate (fun p -> p.ops) totals) (raw_rate (fun p -> p.deliveries) totals);
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev totals.failures);
  let metrics =
    if trace then per_layer totals
    else end_to_end ~setup:(median !setup_samples) totals
  in
  if trace then begin
    (try Sys.mkdir "_build/perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "_build/perfbench/%s-seed%d.spans.jsonl" workload.name seed in
    try Probe.Span.write path with Sys_error e -> Printf.eprintf "spans not written: %s\n" e
  end;
  let failed = List.length totals.failures in
  print_result ~correct:(failed = 0) ~attempted:totals.attempted ~failed metrics;
  if failed = 0 then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let names = String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ names);
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "agreement_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match Workloads.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload names;
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
  | Some workload -> exit (run ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
