(* The append-only response-cache journal: framed records, replay
   order, and — the point of the format — recovery from the torn and
   corrupt tails a crash leaves behind. *)

module Journal = Nano_service.Journal

let temp_path () =
  let path = Filename.temp_file "nanobound-journal" ".bin" in
  Sys.remove path;
  path

let with_journal_file f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let replay path =
  let seen = ref [] in
  let j = Journal.load ~path (fun ~key ~value -> seen := (key, value) :: !seen) in
  (j, List.rev !seen)

let file_size path = (Unix.stat path).Unix.st_size

let check_entries = Alcotest.(check (list (pair string string)))

let test_roundtrip () =
  with_journal_file (fun path ->
      let j, seen = replay path in
      check_entries "fresh file is empty" [] seen;
      Alcotest.(check int) "nothing recovered" 0 (Journal.entries_recovered j);
      Journal.append j ~key:"a" ~value:"1";
      Journal.append j ~key:"b" ~value:"2";
      Journal.append j ~key:"a" ~value:"3";
      Alcotest.(check int) "appends counted" 3 (Journal.appended j);
      Journal.close j;
      let j2, seen = replay path in
      (* Replay preserves append order, so an LRU fed from it ends up
         with the last write winning — same as the live cache. *)
      check_entries "replay in append order"
        [ ("a", "1"); ("b", "2"); ("a", "3") ]
        seen;
      Alcotest.(check int) "recovered count" 3 (Journal.entries_recovered j2);
      Alcotest.(check int) "clean boot truncates nothing" 0
        (Journal.bytes_truncated j2);
      Journal.close j2)

let test_torn_tail () =
  with_journal_file (fun path ->
      let j, _ = replay path in
      Journal.append j ~key:"k1" ~value:"v1";
      Journal.append j ~key:"k2" ~value:"v2";
      Journal.append j ~key:"k3" ~value:"v3";
      Journal.close j;
      (* Chop mid-record, as if the crash happened inside the last
         write. *)
      let size = file_size path in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let j2, seen = replay path in
      check_entries "valid prefix survives"
        [ ("k1", "v1"); ("k2", "v2") ]
        seen;
      Alcotest.(check bool) "tail truncated" true
        (Journal.bytes_truncated j2 > 0);
      (* The handle is positioned after the good prefix: appending and
         reloading yields prefix + new record, no gap, no corruption. *)
      Journal.append j2 ~key:"k4" ~value:"v4";
      Journal.close j2;
      let j3, seen = replay path in
      check_entries "append after recovery"
        [ ("k1", "v1"); ("k2", "v2"); ("k4", "v4") ]
        seen;
      Alcotest.(check int) "clean again" 0 (Journal.bytes_truncated j3);
      Journal.close j3)

let test_torn_tail_under_signal_storm () =
  (* Boot runs every syscall through an EINTR retry, so a signal
     arriving while a torn journal is replayed and truncated is not a
     boot failure. SIGALRM fires every 100 us throughout. *)
  with_journal_file (fun path ->
      let j, _ = replay path in
      let value = String.make 4096 'v' in
      for i = 1 to 64 do
        Journal.append j ~key:(string_of_int i) ~value
      done;
      Journal.close j;
      let whole = file_size path in
      let previous =
        Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()))
      in
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0001; Unix.it_value = 0.0001 });
      Fun.protect
        ~finally:(fun () ->
          ignore
            (Unix.setitimer Unix.ITIMER_REAL
               { Unix.it_interval = 0.; Unix.it_value = 0. });
          Sys.set_signal Sys.sigalrm previous)
        (fun () ->
          for round = 1 to 16 do
            (* Tear the last surviving record, then boot on the file. *)
            let size = file_size path in
            let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
            Unix.ftruncate fd (size - 7);
            Unix.close fd;
            let j2, seen = replay path in
            Alcotest.(check int)
              (Printf.sprintf "round %d: valid prefix" round)
              (64 - round) (List.length seen);
            Alcotest.(check bool)
              (Printf.sprintf "round %d: tail truncated" round)
              true
              (Journal.bytes_truncated j2 > 0);
            Journal.close j2
          done);
      Alcotest.(check bool) "file shrank to the prefix" true
        (file_size path < whole))

let test_corrupt_record () =
  with_journal_file (fun path ->
      let j, _ = replay path in
      Journal.append j ~key:"first" ~value:"ok";
      Journal.append j ~key:"second" ~value:"bad";
      Journal.close j;
      (* Flip one payload byte of the last record: its checksum no
         longer matches, so recovery must stop before it. *)
      let size = file_size path in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
      ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "X") 0 1);
      Unix.close fd;
      let j2, seen = replay path in
      check_entries "corrupt record dropped" [ ("first", "ok") ] seen;
      Alcotest.(check bool) "corrupt tail truncated" true
        (Journal.bytes_truncated j2 > 0);
      Journal.close j2)

let test_garbage_file () =
  with_journal_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "this is not a journal at all\n";
      close_out oc;
      let j, seen = replay path in
      check_entries "garbage yields nothing" [] seen;
      Alcotest.(check bool) "garbage truncated" true
        (Journal.bytes_truncated j > 0);
      Journal.append j ~key:"k" ~value:"v";
      Journal.close j;
      let j2, seen = replay path in
      check_entries "journal usable after reset" [ ("k", "v") ] seen;
      Journal.close j2)

let test_oversized_header_rejected () =
  with_journal_file (fun path ->
      (* A header whose lengths exceed the record bound is corruption,
         not an allocation request. *)
      let oc = open_out_bin path in
      output_string oc "NBJ1";
      output_string oc "\xff\xff\xff\xff";
      output_string oc "\xff\xff\xff\xff";
      output_string oc (String.make 16 '\000');
      close_out oc;
      let j, seen = replay path in
      check_entries "bogus lengths replay nothing" [] seen;
      Alcotest.(check bool) "bogus header truncated" true
        (Journal.bytes_truncated j > 0);
      Journal.close j)

let suite =
  [
    Alcotest.test_case "roundtrip + replay order" `Quick test_roundtrip;
    Alcotest.test_case "torn tail recovery" `Quick test_torn_tail;
    Alcotest.test_case "torn tail recovery under a signal storm" `Quick
      test_torn_tail_under_signal_storm;
    Alcotest.test_case "corrupt record recovery" `Quick test_corrupt_record;
    Alcotest.test_case "garbage file recovery" `Quick test_garbage_file;
    Alcotest.test_case "oversized header rejected" `Quick
      test_oversized_header_rejected;
  ]
