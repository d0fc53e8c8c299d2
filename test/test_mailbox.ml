(* Tests for the message buffer. *)

let envelope ?(src = 0) ?(dst = 1) ?(depth = 1) id =
  {
    Dsim.Envelope.id;
    src;
    dst;
    payload = Printf.sprintf "m%d" id;
    depth;
    sent_at_step = 0;
    sent_in_window = 0;
  }

let test_add_take () =
  let mb = Dsim.Mailbox.create () in
  Dsim.Mailbox.add mb (envelope 1);
  Dsim.Mailbox.add mb (envelope 2);
  Alcotest.(check int) "size" 2 (Dsim.Mailbox.size mb);
  (match Dsim.Mailbox.take mb 1 with
  | Some e -> Alcotest.(check string) "payload" "m1" e.Dsim.Envelope.payload
  | None -> Alcotest.fail "expected envelope 1");
  Alcotest.(check int) "size after take" 1 (Dsim.Mailbox.size mb);
  Alcotest.(check bool) "take again is None" true (Dsim.Mailbox.take mb 1 = None)

let test_duplicate_id () =
  let mb = Dsim.Mailbox.create () in
  Dsim.Mailbox.add mb (envelope 1);
  Alcotest.check_raises "duplicate" (Invalid_argument "Mailbox.add: duplicate message id")
    (fun () -> Dsim.Mailbox.add mb (envelope 1))

let test_pending_order () =
  let mb = Dsim.Mailbox.create () in
  List.iter (fun id -> Dsim.Mailbox.add mb (envelope id)) [ 5; 1; 3 ];
  let ids = Dsim.Mailbox.pending_ids mb in
  Alcotest.(check (list int)) "ascending ids" [ 1; 3; 5 ] ids

let test_pending_filters () =
  let mb = Dsim.Mailbox.create () in
  Dsim.Mailbox.add mb (envelope ~src:0 ~dst:1 1);
  Dsim.Mailbox.add mb (envelope ~src:0 ~dst:2 2);
  Dsim.Mailbox.add mb (envelope ~src:3 ~dst:1 3);
  Alcotest.(check int) "for dst 1" 2 (List.length (Dsim.Mailbox.pending_for mb ~dst:1))

let test_replace_payload () =
  let mb = Dsim.Mailbox.create () in
  Dsim.Mailbox.add mb (envelope 1);
  Alcotest.(check bool) "replace hits" true (Dsim.Mailbox.replace_payload mb 1 "corrupted");
  (match Dsim.Mailbox.find mb 1 with
  | Some e -> Alcotest.(check string) "rewritten" "corrupted" e.Dsim.Envelope.payload
  | None -> Alcotest.fail "expected envelope");
  Alcotest.(check bool) "replace misses" false (Dsim.Mailbox.replace_payload mb 9 "x")

let test_copy_isolation () =
  let mb = Dsim.Mailbox.create () in
  Dsim.Mailbox.add mb (envelope 1);
  let copy = Dsim.Mailbox.copy mb in
  ignore (Dsim.Mailbox.take copy 1);
  Alcotest.(check int) "original untouched" 1 (Dsim.Mailbox.size mb);
  Alcotest.(check int) "copy drained" 0 (Dsim.Mailbox.size copy);
  Dsim.Mailbox.add copy (envelope 2);
  Alcotest.(check bool) "original lacks new" true (Dsim.Mailbox.find mb 2 = None)

let test_empty () =
  let mb = Dsim.Mailbox.create () in
  Alcotest.(check bool) "is_empty" true (Dsim.Mailbox.is_empty mb);
  Alcotest.(check (list int)) "no pending" [] (Dsim.Mailbox.pending_ids mb)

let suite =
  [
    Alcotest.test_case "add/take" `Quick test_add_take;
    Alcotest.test_case "duplicate id" `Quick test_duplicate_id;
    Alcotest.test_case "pending order" `Quick test_pending_order;
    Alcotest.test_case "pending filters" `Quick test_pending_filters;
    Alcotest.test_case "replace payload" `Quick test_replace_payload;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    Alcotest.test_case "empty" `Quick test_empty;
  ]
