(* The four closed-loop workloads.  Each drives public entry points
   only (Ensemble.run_windowed, Engine.init + Runner.run_windows /
   run_steps, Trace_lint.audit, Mcheck.Model.run), one execution after
   the other on one domain, and checks every result it produces.

   A pass is a fixed, seed-determined amount of simulated work.  The
   seed-sweep workloads draw their seed-runs from a sequence fixed by
   the workload seed and stop once the pass reaches a work quota, so
   passes are the same size whatever the seed (a fixed seed *count*
   would not be: windows to decision are roughly exponentially
   distributed).  Untraced passes walk on through the sequence; the
   traced run repeats the first pass. *)

open Dsim

type pass = {
  units : int;  (** seed-runs (or runs) attempted *)
  ops : int;  (** windows, steps or frontier expansions *)
  windows : int;
  steps : int;
  deliveries : int;
  events : int;  (** trace events recorded (audited-ben-or) *)
  violations : int;  (** audit or model-checker violations *)
  states : int;
  candidates : int;
  dedup_hits : int;
  symmetry_hits : int;
  failures : string list;  (** gate failures, one line each *)
  digest : string;  (** canonical text of the simulated statistics *)
  next : int;  (** sequence cursor after this pass *)
  wall_ns : int;  (** simulated work only: no gate or digest bookkeeping *)
  minor_words : int;
  major_words : int;  (** allocated in or promoted to the major heap *)
  twin_kernel_ns : int;
      (** traced audited-ben-or: kernel self time of the same seed-runs
          replayed without event recording *)
}

type t = {
  name : string;
  op_stride : int;  (** ops per latency sample (see [Probe.Lat]) *)
  setup : seed:int -> unit;
      (** Timed set-up: build the inputs and run a fixed warm-up slice. *)
  pass : seed:int -> from:int -> traced:bool -> lat:Probe.Lat.t -> pass;
}

let empty_pass =
  {
    units = 0; ops = 0; windows = 0; steps = 0; deliveries = 0; events = 0;
    violations = 0; states = 0; candidates = 0; dedup_hits = 0;
    symmetry_hits = 0; failures = []; digest = ""; next = 0; wall_ns = 0;
    minor_words = 0; major_words = 0; twin_kernel_ns = 0;
  }

(* Seed-run [k] of workload seed [seed]: the default seed 1 walks the
   seeds 1, 2, 3, ... that the experiment tables use. *)
let run_seed ~seed k = ((seed - 1) * 1_000_000) + k + 1

(* Wall time, minor words and major words of [f ()], added into the
   pass accumulators. *)
type meter = { mutable wall : int; mutable minor : int; mutable major : int }

let meter () = { wall = 0; minor = 0; major = 0 }

let major_words () = int_of_float (Gc.quick_stat ()).major_words

let measured m f =
  let j0 = major_words () in
  let x0 = !Probe.excluded_ns and xw0 = !Probe.excluded_words in
  let w0 = Probe.words () in
  let t0 = Probe.now () in
  let r = f () in
  m.wall <- m.wall + (Probe.now () - t0) - (!Probe.excluded_ns - x0);
  m.minor <- m.minor + (Probe.words () - w0) - (!Probe.excluded_words - xw0);
  m.major <- m.major + (major_words () - j0);
  r

let metered p m = { p with wall_ns = m.wall; minor_words = m.minor; major_words = m.major }

let traced_run ~traced ~name ~id layer f =
  if traced then Probe.Span.record ~name ~id (fun () -> Probe.timed layer f ())
  else f ()

let decision_char = function
  | [] -> '-'
  | (_, v) :: _ -> if v then '1' else '0'

(* ------------------------------------------------------------------ *)
(* e2-balancing: the paper's exponential-time curve (E2).              *)

let e2_n = 15
let e2_quota = 5_000 (* windows per pass: ~9 seed-runs *)

let e2_spec =
  {
    Agreement.Ensemble.n = e2_n;
    t = 1;
    inputs = Agreement.Ensemble.split_inputs ~n:e2_n;
    max_windows = 400_000;
    max_steps = 0;
    stop = `First_decision;
  }

let e2_protocol = Protocols.Lewko_variant.protocol ()

let e2_pass ~seed ~from ~traced ~lat =
  let protocol = if traced then Wrap.protocol e2_protocol else e2_protocol in
  let meter = meter () in
  let k = ref from and acc = ref empty_pass and digest = Buffer.create 1024 in
  while !acc.windows < e2_quota do
    let s = run_seed ~seed !k in
    let captured = ref None in
    let strategy _seed =
      let decide = Adversary.Split_vote.windowed () in
      let decide =
        if traced then Wrap.strategy decide else Wrap.stamped lat decide
      in
      fun config ->
        if Option.is_none !captured then captured := Some config;
        decide config
    in
    let r =
      measured meter (fun () ->
          let r =
            traced_run ~traced ~name:"e2-balancing.run" ~id:s Probe.runner
              (fun () ->
                Agreement.Ensemble.run_windowed ~protocol ~strategy ~spec:e2_spec
                  ~seeds:[ s ] ())
          in
          if not traced then Probe.Lat.close lat;
          r)
    in
    let windows, steps, deliveries, decided =
      match !captured with
      | Some c ->
          ( Engine.window_index c,
            Engine.step_index c,
            Trace.delivered (Engine.trace c),
            Engine.decided_values c )
      | None -> (0, 0, 0, [])
    in
    let failures =
      if
        r.Agreement.Ensemble.runs = 1 && r.terminated = 1
        && r.agreement_failures = 0 && r.validity_failures = 0 && windows > 0
      then []
      else
        [ Printf.sprintf "e2-balancing seed %d: terminated %d, agreement failures %d, validity failures %d"
            s r.terminated r.agreement_failures r.validity_failures ]
    in
    Printf.bprintf digest "%d:%d:%d:%c " s windows steps (decision_char decided);
    acc :=
      {
        !acc with
        units = !acc.units + 1;
        ops = !acc.ops + windows;
        windows = !acc.windows + windows;
        steps = !acc.steps + steps;
        deliveries = !acc.deliveries + deliveries;
        failures = failures @ !acc.failures;
      };
    incr k
  done;
  metered { !acc with digest = Buffer.contents digest; next = !k } meter

(* Warm-up: 200 balancing windows of one n = 15 execution. *)
let e2_setup ~seed =
  let s = run_seed ~seed 0 in
  let config =
    Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n:e2_n ~fault_bound:1
      ~inputs:(Agreement.Ensemble.split_inputs ~n:e2_n s) ~seed:s ()
  in
  ignore
    (Runner.run_windows config ~strategy:(Adversary.Split_vote.windowed ())
       ~max_windows:200 ~stop:`Never)

(* ------------------------------------------------------------------ *)
(* bracha-agreement: fault-free Bracha at n = 100 until all decide.    *)

let bracha_n = 100
let bracha_t = 33
let bracha_protocol = Protocols.Bracha.protocol ()

let bracha_init protocol ~seed =
  Engine.init ~protocol ~n:bracha_n ~fault_bound:bracha_t
    ~inputs:(Agreement.Ensemble.split_inputs ~n:bracha_n seed) ~seed ()

let bracha_pass ~seed ~from:_ ~traced ~lat =
  let protocol = if traced then Wrap.protocol bracha_protocol else bracha_protocol in
  let meter = meter () in
  let config, outcome =
    measured meter (fun () ->
        traced_run ~traced ~name:"bracha-agreement.run" ~id:seed Probe.runner
          (fun () ->
            let config = bracha_init protocol ~seed in
            let decide = Adversary.Benign.windowed () in
            let strategy =
              if traced then Wrap.strategy decide
              else begin
                (* A pass is one ~6 s execution: read the host speed
                   before every window too. *)
                let decide = Wrap.stamped lat decide in
                fun config ->
                  Reference.tick ();
                  decide config
              end
            in
            let o =
              Runner.run_windows config ~strategy ~max_windows:64 ~stop:`All_decided
            in
            if not traced then Probe.Lat.close lat;
            (config, o)))
  in
  let fingerprint =
    Digest.to_hex
      (Digest.string (fst (Probe.isolated (fun () -> Engine.config_fingerprint config))))
  in
  let inputs = Engine.inputs config in
  let values = List.sort_uniq Bool.compare (List.map snd outcome.Runner.decided) in
  let failures =
    match values with
    | [ v ]
      when outcome.reason = Runner.Stopped
           && List.length outcome.decided = bracha_n
           && Array.exists (Bool.equal v) inputs ->
        []
    | _ ->
        [ Printf.sprintf "bracha-agreement seed %d: %d of %d decided, %d distinct values"
            seed (List.length outcome.decided) bracha_n (List.length values) ]
  in
  metered
  {
    empty_pass with
    units = 1;
    ops = outcome.windows;
    windows = outcome.windows;
    steps = outcome.steps;
    deliveries = outcome.messages_delivered;
    failures;
    digest =
      Printf.sprintf "%d:%d:%d:%d:%c:%s" seed outcome.windows outcome.steps
        outcome.messages_delivered (decision_char outcome.decided) fingerprint;
  }
  meter

(* Warm-up: the first window, in which every processor admits all n
   RBC initials (n^2 deliveries). *)
let bracha_setup ~seed =
  let config = bracha_init (Protocols.Bracha.protocol ()) ~seed in
  Engine.apply_window config (Window.uniform ~n:bracha_n ())

(* ------------------------------------------------------------------ *)
(* mcheck-bracha: exhaustive n = 3 exploration to depth 4.             *)

let mcheck_model () =
  match Mcheck.Model.find "bracha" with
  | Some m -> m
  | None -> failwith "mcheck model bracha is not registered"

let mcheck_options m ~seed ~depth ~sharder =
  let o = Mcheck.Model.options m ~n:3 ~t:1 in
  { o with Mcheck.Explore.depth; seed; jobs = 1; sharder }

(* The sequential sharder, counting frontier expansions and (when
   [lat] is given) timing each one. *)
let counting_sharder expansions lat =
  {
    Mcheck.Explore.run =
      (fun ~jobs ~merge ~init ~f items ->
        let f x =
          (* A pass is one ~3 s exploration: read the host speed every
             256 expansions too. *)
          if Option.is_some lat && !expansions land 255 = 0 then Reference.tick ();
          incr expansions;
          match lat with
          | None -> f x
          | Some h ->
              let t0 = Probe.now () in
              let r = f x in
              Probe.Lat.add h (Probe.now () - t0);
              r
        in
        Mcheck.Explore.sequential_sharder.run ~jobs ~merge ~init ~f items);
  }

let wrapped_model (m : Mcheck.Model.t) =
  let (Mcheck.Model.Packed p) = m.packed in
  { m with packed = Mcheck.Model.Packed (Wrap.protocol p) }

(* Pinned in test/test_mcheck.ml for the default seed. *)
let mcheck_pinned_seed = 1
let mcheck_pinned_states = 17_845
let mcheck_pinned_candidates = 40_224

(* Deliveries per exploration, per seed.  Model.run exposes no engine
   counter, so they are counted once, outside any timing, by an isolated
   traced exploration. *)
let mcheck_deliveries = Hashtbl.create 1

let untraced_deliveries ~seed =
  match Hashtbl.find_opt mcheck_deliveries seed with
  | Some d -> d
  | None ->
      let m = mcheck_model () in
      let opts =
        mcheck_options m ~seed ~depth:4 ~sharder:Mcheck.Explore.sequential_sharder
      in
      let _, counters = Probe.isolated (fun () -> Mcheck.Model.run (wrapped_model m) opts) in
      let d = counters.calls.(Probe.on_deliver) in
      Hashtbl.replace mcheck_deliveries seed d;
      d

let mcheck_pass ~seed ~from:_ ~traced ~lat =
  let calls_before = !Probe.current.calls.(Probe.on_deliver) in
  let base = mcheck_model () in
  let expansions = ref 0 in
  let opts =
    mcheck_options base ~seed ~depth:4
      ~sharder:(counting_sharder expansions (if traced then None else Some lat))
  in
  let meter = meter () in
  let r =
    measured meter (fun () ->
        traced_run ~traced ~name:"mcheck-bracha.explore" ~id:seed Probe.explore
          (fun () ->
            Mcheck.Model.run (if traced then wrapped_model base else base) opts))
  in
  let deliveries =
    if traced then !Probe.current.calls.(Probe.on_deliver) - calls_before
    else untraced_deliveries ~seed
  in
  let pinned_ok =
    seed <> mcheck_pinned_seed
    || (r.Mcheck.Explore.total_states = mcheck_pinned_states
       && r.total_candidates = mcheck_pinned_candidates)
  in
  let failures =
    if r.Mcheck.Explore.violations_total = 0 && (not r.bounded) && pinned_ok then []
    else
      [ Printf.sprintf "mcheck-bracha seed %d: %d violations, bounded %b, %d states / %d candidates"
          seed r.violations_total r.bounded r.total_states r.total_candidates ]
  in
  metered
  {
    empty_pass with
    units = 1;
    ops = !expansions;
    deliveries;
    violations = r.violations_total;
    states = r.total_states;
    candidates = r.total_candidates;
    dedup_hits = r.total_dedup_hits;
    symmetry_hits = r.total_symmetry_hits;
    failures;
    digest =
      Printf.sprintf "%d:%d:%d:%d:%d:%d" seed r.total_states r.total_candidates
        r.total_dedup_hits r.total_symmetry_hits r.violations_total;
  }
  meter

(* Warm-up: the same exploration to depth 2. *)
let mcheck_setup ~seed =
  let m = mcheck_model () in
  ignore
    (Mcheck.Model.run m
       (mcheck_options m ~seed ~depth:2 ~sharder:Mcheck.Explore.sequential_sharder))

(* ------------------------------------------------------------------ *)
(* audited-ben-or: stepwise Ben-Or with event recording + audit.       *)

let ben_or_n = 9
let ben_or_t = 4
let ben_or_quorum = ben_or_n - ben_or_t
let ben_or_quota = 250_000 (* steps per pass: ~6 seed-runs *)
let ben_or_protocol = Protocols.Ben_or.protocol ()

let ben_or_run protocol ~seed ~record_events ~strategy =
  let config =
    Engine.init ~protocol ~n:ben_or_n ~fault_bound:ben_or_t
      ~inputs:(Agreement.Ensemble.split_inputs ~n:ben_or_n seed) ~seed
      ~record_events ()
  in
  let o = Runner.run_steps config ~strategy ~max_steps:6_000_000 ~stop:`First_decision in
  (config, o)

let ben_or_pass ~seed ~from ~traced ~lat =
  let protocol = if traced then Wrap.protocol ben_or_protocol else ben_or_protocol in
  let meter = meter () and twin_kernel_ns = ref 0 in
  let k = ref from and acc = ref empty_pass and digest = Buffer.create 1024 in
  while !acc.steps < ben_or_quota do
    let s = run_seed ~seed !k in
    let decide = Adversary.Split_vote.stepwise () in
    let strategy = if traced then Wrap.strategy decide else Wrap.stamped lat decide in
    let config, o, violations =
      measured meter (fun () ->
          let config, o =
            traced_run ~traced ~name:"audited-ben-or.run" ~id:s Probe.runner
              (fun () -> ben_or_run protocol ~seed:s ~record_events:true ~strategy)
          in
          if not traced then Probe.Lat.close lat;
          let violations =
            traced_run ~traced ~name:"audited-ben-or.audit" ~id:s Probe.trace_lint
              (fun () -> Lintkit.Trace_lint.audit ~decision_quorum:ben_or_quorum config)
          in
          (config, o, violations))
    in
    let twin_failures =
      if not traced then []
      else begin
        let (_, twin), counters =
          Probe.isolated (fun () ->
              Probe.timed Probe.runner
                (fun () ->
                  ben_or_run protocol ~seed:s ~record_events:false
                    ~strategy:(Wrap.strategy (Adversary.Split_vote.stepwise ())))
                ())
        in
        twin_kernel_ns := !twin_kernel_ns + counters.self_ns.(Probe.runner);
        if twin.Runner.steps = o.steps then []
        else
          [ Printf.sprintf "audited-ben-or seed %d: %d steps recorded vs %d unrecorded"
              s o.steps twin.steps ]
      end
    in
    let inputs = Engine.inputs config in
    let verdict = Agreement.Correctness.of_outcome ~inputs o in
    let failures =
      if o.reason = Runner.Stopped && Agreement.Correctness.ok verdict && violations = []
      then twin_failures
      else
        Printf.sprintf
          "audited-ben-or seed %d: stopped %b, agreement %b, validity %b, %d audit violations"
          s (o.reason = Runner.Stopped) verdict.agreement
          verdict.validity (List.length violations)
        :: twin_failures
    in
    let events = List.length (Trace.events (Engine.trace config)) in
    Printf.bprintf digest "%d:%d:%d:%c " s o.steps events (decision_char o.decided);
    acc :=
      {
        !acc with
        units = !acc.units + 1;
        ops = !acc.ops + o.steps;
        steps = !acc.steps + o.steps;
        deliveries = !acc.deliveries + o.messages_delivered;
        events = !acc.events + events;
        violations = !acc.violations + List.length violations;
        failures = failures @ !acc.failures;
      };
    incr k
  done;
  metered
    { !acc with digest = Buffer.contents digest; next = !k;
      twin_kernel_ns = !twin_kernel_ns }
    meter

(* Warm-up: 20 000 recorded steps of one execution, then their audit. *)
let ben_or_setup ~seed =
  let s = run_seed ~seed 0 in
  let config =
    Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n:ben_or_n
      ~fault_bound:ben_or_t ~inputs:(Agreement.Ensemble.split_inputs ~n:ben_or_n s)
      ~seed:s ~record_events:true ()
  in
  ignore
    (Runner.run_steps config ~strategy:(Adversary.Split_vote.stepwise ())
       ~max_steps:20_000 ~stop:`Never);
  ignore (Lintkit.Trace_lint.audit ~decision_quorum:ben_or_quorum config)

(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "e2-balancing"; op_stride = 1; setup = e2_setup; pass = e2_pass };
    { name = "bracha-agreement"; op_stride = 1; setup = bracha_setup; pass = bracha_pass };
    { name = "mcheck-bracha"; op_stride = 1; setup = mcheck_setup; pass = mcheck_pass };
    { name = "audited-ben-or"; op_stride = 100; setup = ben_or_setup; pass = ben_or_pass };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
