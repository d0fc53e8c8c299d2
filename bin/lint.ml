(* Determinism lint driver.

     lint [--root DIR] [--dir lib --dir bin ...] [--format human|json|sarif]
     lint --typed [--root DIR] [--baseline FILE]
     lint --cost [--root DIR] [--baseline FILE]
     lint --quorum [--root DIR] [--baseline FILE]
     lint --check FILE          # all layers on one standalone source
     lint --explain R8

   Layer 1 (default) parses every .ml under the selected trees and
   checks the syntactic rules R1-R6.  Layer 2 (--typed) reads the
   *.cmt typed trees of the built project and checks R7-R10; layer 3
   (--cost) reads the same trees and checks the hot-path cost rules
   R11-R14; layer 5 (--quorum) proves the quorum-threshold arithmetic
   R15-R18 symbolically for all n, t; all three cmt layers require
   `dune build` to have run.  Exit codes: 0 clean, 1 rule violations,
   2 read/parse/load errors; a --baseline entry that matches no
   finding is stale and also exits 1 — so any layer can gate CI via
   `dune build @lint` / `@lint-typed` / `@lint-cost` /
   `@lint-quorum`. *)

open Cmdliner

let render format report =
  match format with
  | `Json -> Lintkit.Driver.render_json Format.std_formatter report
  | `Sarif -> Lintkit.Driver.render_sarif Format.std_formatter report
  | `Baseline -> Lintkit.Driver.render_baseline Format.std_formatter report
  | `Human -> Lintkit.Driver.render_human Format.std_formatter report

(* Waive the baselined findings and name every stale entry (one that
   matches no finding) on stderr; stale entries fail the run. *)
let with_baseline baseline report =
  match baseline with
  | None -> Ok (report, [])
  | Some file -> (
      match Lintkit.Driver.read_baseline file with
      | Error e -> Error (Printf.sprintf "baseline %s: %s" file e)
      | Ok entries ->
          let stale = Lintkit.Driver.stale_baseline entries report in
          let report, waived = Lintkit.Driver.apply_baseline entries report in
          if waived > 0 then
            Format.eprintf "lint: %d finding%s waived by baseline %s@." waived
              (if waived = 1 then "" else "s")
              file;
          List.iter
            (fun (rule, path, message) ->
              Format.eprintf "lint: stale baseline entry in %s: %s\t%s\t%s@."
                file rule path message)
            stale;
          Ok (report, stale))

(* All layers on a single standalone source file: the syntactic pass,
   then an in-memory typecheck for R7-R10 and R11-R14.  Used by
   fixtures and the check.sh exit-code matrix; no cmt files needed. *)
let check_file format file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e ->
      Format.eprintf "lint: %s@." e;
      2
  | source ->
      let static =
        match Lintkit.Static_lint.lint_source ~path:file source with
        | Ok ds -> Ok ds
        | Error e -> Error e
      in
      let typed = Lintkit.Typed_lint.check_source ~path:file source in
      let cost = Lintkit.Cost_lint.check_source ~path:file source in
      let quorum = Lintkit.Quorum_lint.check_source ~path:file source in
      let diagnostics, errors =
        List.fold_left
          (fun (ds, es) -> function
            | Ok d -> (ds @ d, es)
            | Error e -> (ds, es @ [ e ]))
          ([], []) [ static; typed; cost; quorum ]
      in
      let report =
        {
          Lintkit.Driver.diagnostics =
            List.sort Lintkit.Static_lint.compare_diagnostic diagnostics;
          errors;
          files_scanned = 1;
        }
      in
      render format report;
      Lintkit.Driver.exit_code report

let run root dirs format explain typed cost quorum baseline check =
  match explain with
  | Some id -> (
      match Lintkit.Rules.of_id id with
      | Some rule ->
          Format.printf "@[<v>%s — %s (%s layer)@,@,%s@]@."
            (Lintkit.Rules.id rule)
            (Lintkit.Rules.title rule)
            (match Lintkit.Rules.layer rule with
            | `Static -> "syntactic"
            | `Typed -> "typed"
            | `Cost -> "cost"
            | `Quorum -> "quorum")
            (Lintkit.Rules.describe rule);
          0
      | None ->
          Format.eprintf "unknown rule %S (expected R1..R18)@." id;
          2)
  | None -> (
      match check with
      | Some file -> check_file format file
      | None ->
          let report =
            if quorum then
              Lintkit.Driver.scan_quorum
                ~dirs:(if dirs = [] then [ "lib" ] else dirs)
                ~root ()
            else if cost then
              Lintkit.Driver.scan_cost
                ~dirs:(if dirs = [] then [ "lib" ] else dirs)
                ~root ()
            else if typed then
              Lintkit.Driver.scan_typed
                ~dirs:(if dirs = [] then [ "lib" ] else dirs)
                ~root ()
            else
              let dirs =
                if dirs = [] then Lintkit.Driver.default_dirs else dirs
              in
              Lintkit.Driver.scan ~dirs ~root ()
          in
          (match with_baseline baseline report with
          | Error e ->
              Format.eprintf "lint: %s@." e;
              2
          | Ok (report, stale) ->
              render format report;
              Lintkit.Driver.exit_code ~stale report))

let root =
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR"
         ~doc:"Repository root to scan (paths in the report are relative to it).")

let dirs =
  Arg.(value & opt_all string [] & info [ "dir" ] ~docv:"DIR"
         ~doc:"Subtree to scan (repeatable; defaults to lib bin bench examples, \
               or lib for --typed).")

let format =
  Arg.(value
       & opt
           (enum
              [
                ("human", `Human);
                ("json", `Json);
                ("sarif", `Sarif);
                ("baseline", `Baseline);
              ])
           `Human
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: human, json, sarif (2.1.0), or baseline \
                 (RULE<TAB>PATH<TAB>MESSAGE lines suitable for --baseline).")

let explain =
  Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"RULE"
         ~doc:"Print the rationale for one rule (R1..R18) and exit.")

let typed =
  Arg.(value & flag & info [ "typed" ]
         ~doc:"Run the typed layer (R7..R10) over the *.cmt trees of the \
               built project instead of the syntactic layer. Requires a \
               prior $(b,dune build).")

let cost =
  Arg.(value & flag & info [ "cost" ]
         ~doc:"Run the hot-path cost layer (R11..R14) over the *.cmt trees \
               of the built project instead of the syntactic layer. \
               Requires a prior $(b,dune build).")

let quorum =
  Arg.(value & flag & info [ "quorum" ]
         ~doc:"Run the symbolic quorum-safety layer (R15..R18) over the \
               *.cmt trees of the built project instead of the syntactic \
               layer. Requires a prior $(b,dune build).")

let baseline =
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
         ~doc:"Waive findings listed in FILE (RULE<TAB>PATH<TAB>MESSAGE \
               lines, '#' comments). Seed one by redirecting \
               $(b,--format baseline) output to FILE. An entry that \
               matches no finding is stale: it is printed and the run \
               exits 1.")

let check =
  Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE"
         ~doc:"Lint one standalone source file with both layers (the typed \
               rules via an in-memory typecheck; no cmt files needed).")

let cmd =
  let doc =
    "determinism, hot-path & quorum-safety linter (syntactic + typed + \
     cost + quorum) for the agreement reproduction"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ root $ dirs $ format $ explain $ typed $ cost $ quorum
          $ baseline $ check)

let () = exit (Cmd.eval' cmd)
