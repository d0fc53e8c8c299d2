(* Host-speed reference.

   On a shared host the same pass can run up to ~2x slower for seconds
   to minutes while other tenants contend for the caches; a run-level
   throughput then reads the host as much as the code.  A fixed kernel
   timed right before and right after every pass (and at fixed points
   inside the long ones) reads the host's current speed, and the gated
   times and throughputs are scaled by it (see [normalise]).  The kernel
   calls no code of the repository, so its cost is the same on every
   commit.  It churns small short-lived objects through the minor heap,
   the allocation pattern that makes the workloads sensitive to cache
   contention. *)

module IM = Map.Make (Int)

let kernel () =
  let acc = ref 0 in
  for round = 1 to 3000 do
    let m = ref IM.empty in
    for k = 0 to 63 do
      m := IM.add ((k * 7919) + (round land 1023)) (k lxor round) !m
    done;
    acc := !acc + IM.fold (fun k v a -> a + (k land v)) !m 0;
    let l = List.init 64 (fun i -> i * round) in
    acc := !acc + List.fold_left ( + ) 0 (List.rev_map (fun x -> x lsr 1) l)
  done;
  !acc

let sink = ref 0

(* Time of one kernel run, in ns. *)
let sample () =
  let t0 = Probe.now () in
  sink := !sink + kernel ();
  Probe.now () - t0

(* Kernel times sampled since the last [take]. *)
let samples : int list ref = ref []

(* Kernel runs between passes, until [budget_ns] is spent (at least
   one). *)
let read ~budget_ns =
  let rec go spent =
    if spent < budget_ns || spent = 0 then begin
      let s = sample () in
      samples := s :: !samples;
      go (spent + s)
    end
  in
  go 0

(* One kernel run inside a measured pass, at a point fixed by the work
   done (so the pass's allocation figures repeat exactly); the pass's
   meters and op latencies leave out its time and words. *)
let tick () =
  let w0 = Probe.words () in
  let s = sample () in
  Probe.excluded_ns := !Probe.excluded_ns + s;
  Probe.excluded_words := !Probe.excluded_words + (Probe.words () - w0);
  samples := s :: !samples

(* The host-speed reading of a pass: the median of the kernel times
   sampled since the last call, which are dropped. *)
let take () =
  let a = Array.of_list !samples in
  samples := [];
  Array.sort Int.compare a;
  a.(Array.length a / 2)

(* The kernel time the normalised figures are scaled to: about its
   median on the 2-vCPU 2.0 GHz Xeon host the benchmark was tuned on. *)
let nominal_ns = 25_000_000

(* [rate] measured while the kernel took [reference_ns], expressed at
   the nominal host speed. *)
let normalise rate ~reference_ns =
  rate *. float_of_int reference_ns /. float_of_int nominal_ns

(* The same for a time. *)
let normalise_time seconds ~reference_ns =
  seconds *. float_of_int nominal_ns /. float_of_int reference_ns
