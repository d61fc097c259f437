(* Golden-matrix runner: run_matrix EXPECTED NATTO_SIM > ACTUAL.

   Every "## ARGS" line of EXPECTED is a row key, a natto_sim argument line
   split on spaces (no shell, no quoting). For each key in file order this
   prints the key line and then the stdout of NATTO_SIM ARGS, so ACTUAL has
   EXPECTED's shape and dune's (diff ...) compares them line by line. A run
   that exits non-zero (a bad key, a checker violation) fails the rule, so
   it can never be promoted. A row that differs is named on stderr, since
   the diff hunk may not reach back to its key line. *)

let prefix = "## "

(* (key, expected block) pairs in file order. *)
let rows text =
  let body = if String.ends_with ~suffix:"\n" text then String.sub text 0 (String.length text - 1) else text in
  List.fold_left
    (fun rows line ->
      match (String.starts_with ~prefix line, rows) with
      | true, _ -> (String.sub line 3 (String.length line - 3), "") :: rows
      | false, (key, block) :: rest -> (key, block ^ line ^ "\n") :: rest
      | false, [] -> failwith ("run_matrix: text before the first key: " ^ line))
    [] (String.split_on_char '\n' body)
  |> List.rev

let () =
  let text = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all and exe = Sys.argv.(2) in
  List.iter
    (fun (key, want) ->
      let args = List.filter (( <> ) "") (String.split_on_char ' ' key) in
      let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
      let got = In_channel.input_all ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
          Printf.eprintf "golden: natto_sim %s\ngolden: exited with status %d\n%!" key n;
          exit 1);
      if got <> want then Printf.eprintf "golden: output differs: %s%s\n%!" prefix key;
      print_string (prefix ^ key ^ "\n" ^ got))
    (rows text)
