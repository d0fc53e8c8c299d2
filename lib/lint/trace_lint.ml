type invariant = Fifo | Depth | Provenance | Window | Quorum

let invariant_id = function
  | Fifo -> "fifo"
  | Depth -> "depth"
  | Provenance -> "provenance"
  | Window -> "window"
  | Quorum -> "quorum"

type violation = { invariant : invariant; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" (invariant_id v.invariant) v.detail

type config = {
  n : int;
  t : int;
  windowed : bool;
  fifo : bool;
  decision_quorum : int option;
}

(* Ledger states, one byte per message id. *)
let unsent = '\000'
let pending = '\001'
let delivered = '\002'
let dropped = '\003'

let state_name state = if Char.equal state delivered then "delivered" else "dropped"

(* A message whose id lies outside the dense ledger range.  Only
   hand-written event lists reach these; engine ids are dense. *)
type stray = {
  src : int;
  dst : int;
  depth : int;
  sent_window : int;
  mutable state : char;
}

let check config events =
  let violations = ref [] in
  let flag invariant fmt =
    Format.kasprintf
      (fun detail -> violations := { invariant; detail } :: !violations)
      fmt
  in
  let n = config.n in
  let rows = max n 1 in
  let in_range pid = pid >= 0 && pid < n in
  (* Message ledger, struct-of-arrays over [0, number of Sent events):
     the engine issues ids densely from 0 and records one [Sent] per
     id, so every engine id lands here.  Other ids go to [strays]. *)
  let cap =
    List.fold_left
      (fun c (event : Dsim.Trace.event) -> match event with Sent _ -> c + 1 | _ -> c)
      0 events
  in
  let sent_src = Array.make cap 0 in
  let sent_dst = Array.make cap 0 in
  let sent_depth = Array.make cap 0 in
  let sent_window = Array.make cap 0 in
  let state = Bytes.make cap unsent in
  let strays : (int, stray) Hashtbl.t = Hashtbl.create 8 in
  let dense msg_id = msg_id >= 0 && msg_id < cap in
  (* Per-channel last delivered id, for FIFO: one row per in-range
     source, allocated on its first delivery, with a byte row saying
     which destinations have one; channels with an out-of-range
     endpoint keep a side table. *)
  let fifo_last = Array.make rows [||] in
  let fifo_seen = Array.make rows Bytes.empty in
  let fifo_stray : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  (* Per-processor max delivered depth, for the depth invariant. *)
  let recv_depth = Array.make rows 0 in
  (* Per-processor distinct senders heard from, for the quorum check:
     a byte row per destination (allocated on its first delivery) plus
     a counter; out-of-range senders keep a side table. *)
  let heard = Array.make rows Bytes.empty in
  let heard_stray : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let senders = Array.make rows 0 in
  let decided : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let window = ref 0 in
  let resets_this_window = ref 0 in
  (* Whether a message found in [prior] state may be consumed now; flags
     the reason when it may not. *)
  let consumable msg_id how prior =
    if Char.equal prior pending then true
    else begin
      if Char.equal prior unsent then
        flag Provenance "%s message #%d was never sent" (state_name how) msg_id
      else
        flag Provenance "message #%d %s after already being %s" msg_id (state_name how)
          (state_name prior);
      false
    end
  in
  let check_delivery ~msg_id ~src ~dst ~depth ~sent_as_src ~sent_as_dst ~sent_as_depth
      ~sent_in =
    if sent_as_src <> src || sent_as_dst <> dst || sent_as_depth <> depth then
      flag Provenance
        "message #%d delivered as %d->%d depth %d but sent as %d->%d depth %d" msg_id
        src dst depth sent_as_src sent_as_dst sent_as_depth;
    if config.windowed && sent_in <> !window then
      flag Window "message #%d sent in window %d but delivered in window %d" msg_id
        sent_in !window
  in
  (* Consume a stray id; returns it when it was pending. *)
  let consume_stray msg_id how =
    match Hashtbl.find_opt strays msg_id with
    | None ->
        ignore (consumable msg_id how unsent);
        None
    | Some info as found ->
        if consumable msg_id how info.state then begin
          info.state <- how;
          found
        end
        else None
  in
  let out_of_order ~src ~dst ~msg_id prev =
    if msg_id <= prev then
      flag Fifo
        "channel %d->%d delivered message #%d after #%d (ids must be strictly \
         increasing)"
        src dst msg_id prev
  in
  let fifo ~src ~dst ~msg_id =
    if in_range src && in_range dst then begin
      if Array.length fifo_last.(src) = 0 then begin
        fifo_last.(src) <- Array.make n 0;
        fifo_seen.(src) <- Bytes.make n '\000'
      end;
      let last = fifo_last.(src) and seen = fifo_seen.(src) in
      if Char.equal (Bytes.get seen dst) '\001' then
        out_of_order ~src ~dst ~msg_id last.(dst)
      else Bytes.set seen dst '\001';
      last.(dst) <- msg_id
    end
    else begin
      (match Hashtbl.find_opt fifo_stray (src, dst) with
      | Some prev -> out_of_order ~src ~dst ~msg_id prev
      | None -> ());
      Hashtbl.replace fifo_stray (src, dst) msg_id
    end
  in
  let hear ~src ~dst =
    if in_range src then begin
      if Bytes.length heard.(dst) = 0 then heard.(dst) <- Bytes.make n '\000';
      let row = heard.(dst) in
      if not (Char.equal (Bytes.get row src) '\001') then begin
        Bytes.set row src '\001';
        senders.(dst) <- senders.(dst) + 1
      end
    end
    else if not (Hashtbl.mem heard_stray (dst, src)) then begin
      Hashtbl.replace heard_stray (dst, src) ();
      senders.(dst) <- senders.(dst) + 1
    end
  in
  List.iter
    (fun event ->
      match (event : Dsim.Trace.event) with
      | Sent { src; dst; msg_id; depth } ->
          if not (in_range src && in_range dst) then
            flag Provenance "message #%d has endpoints %d->%d outside 0..%d" msg_id
              src dst (n - 1);
          if dense msg_id then begin
            if not (Char.equal (Bytes.get state msg_id) unsent) then
              flag Provenance "message id #%d sent twice" msg_id
            else begin
              sent_src.(msg_id) <- src;
              sent_dst.(msg_id) <- dst;
              sent_depth.(msg_id) <- depth;
              sent_window.(msg_id) <- !window;
              Bytes.set state msg_id pending
            end
          end
          else if Hashtbl.mem strays msg_id then
            flag Provenance "message id #%d sent twice" msg_id
          else
            Hashtbl.replace strays msg_id
              { src; dst; depth; sent_window = !window; state = pending };
          if in_range src then
            let expected = recv_depth.(src) + 1 in
            if depth <> expected then
              flag Depth
                "message #%d from %d has depth %d, expected %d (1 + max delivered \
                 depth %d)"
                msg_id src depth expected recv_depth.(src)
      | Delivered { src; dst; msg_id; depth } ->
          if dense msg_id then begin
            if consumable msg_id delivered (Bytes.get state msg_id) then begin
              Bytes.set state msg_id delivered;
              check_delivery ~msg_id ~src ~dst ~depth ~sent_as_src:sent_src.(msg_id)
                ~sent_as_dst:sent_dst.(msg_id) ~sent_as_depth:sent_depth.(msg_id)
                ~sent_in:sent_window.(msg_id)
            end
          end
          else begin
            match consume_stray msg_id delivered with
            | Some info ->
                check_delivery ~msg_id ~src ~dst ~depth ~sent_as_src:info.src
                  ~sent_as_dst:info.dst ~sent_as_depth:info.depth
                  ~sent_in:info.sent_window
            | None -> ()
          end;
          if config.fifo then fifo ~src ~dst ~msg_id;
          if in_range dst then begin
            if depth > recv_depth.(dst) then recv_depth.(dst) <- depth;
            hear ~src ~dst
          end
      | Dropped { msg_id } ->
          if dense msg_id then begin
            if consumable msg_id dropped (Bytes.get state msg_id) then
              Bytes.set state msg_id dropped
          end
          else ignore (consume_stray msg_id dropped)
      | Reset_done { pid } ->
          if config.windowed then begin
            incr resets_this_window;
            if !resets_this_window = config.t + 1 then
              flag Window
                "window %d performed more than t = %d resets (processor %d was \
                 reset %d-th)"
                !window config.t pid !resets_this_window
          end
      | Crashed _ -> ()
      | Decided { pid; value; _ } ->
          (match Hashtbl.find_opt decided pid with
          | Some _ -> flag Quorum "processor %d decided twice" pid
          | None -> Hashtbl.replace decided pid value);
          (match config.decision_quorum with
          | Some quorum when in_range pid ->
              let heard_from = senders.(pid) in
              if heard_from < quorum then
                flag Quorum
                  "processor %d decided %b having heard from only %d distinct \
                   senders (quorum %d)"
                  pid value heard_from quorum
          | _ -> ());
          Hashtbl.iter
            (fun other v ->
              if other <> pid && Bool.equal v (not value) then
                flag Quorum "processors %d and %d decided opposite values" other
                  pid)
            decided
      | Window_closed { index } ->
          if config.windowed then begin
            (* The engine increments its window counter before recording,
               so the k-th closing event carries index k (1-based). *)
            if index <> !window + 1 then
              flag Window "window closed with index %d, expected %d" index
                (!window + 1);
            window := !window + 1;
            resets_this_window := 0
          end)
    events;
  List.rev !violations

let audit ?decision_quorum ?(fifo = true) engine =
  let trace = Dsim.Engine.trace engine in
  let events = Dsim.Trace.events trace in
  match events with
  | [] ->
      if Dsim.Engine.decision_conflict engine then
        [ { invariant = Quorum;
            detail = "processors decided opposite values (agreement violated)" } ]
      else []
  | events ->
      (* A recorded trace keeps every event, so it holds a
         [Window_closed] exactly when its counter is positive. *)
      let config =
        { n = Dsim.Engine.n engine;
          t = Dsim.Engine.fault_bound engine;
          windowed = Dsim.Trace.windows_closed trace > 0;
          fifo;
          decision_quorum }
      in
      check config events
