(* Durable, checksummed state snapshots for phomd.

   A snapshot is a single file holding the whole warm state of a daemon
   (catalog graphs and matrices, cached artifacts) as a sequence of
   records, each independently CRC-32-checksummed so a reader can verify
   every entry before trusting a byte of it. Writes go to a sibling .tmp
   file, are fsynced, and land via rename(2), so a crash at any instant
   leaves either the previous snapshot or the new one — never a blend.

   The reader is the paranoid half: a record whose checksum fails, whose
   payload is truncated, or whose header does not parse is quarantined
   (counted, skipped, never returned), and structural damage past which the
   scan cannot resync stops the scan with the remainder quarantined. The
   caller decides what quarantine means; this module only promises that no
   corrupt payload ever reaches it. *)

(* ---- CRC-32 (IEEE 802.3, the zlib polynomial) ----

   The running register is a native int holding the 32 bits, threaded by
   value: each caller owns its own, so the journal, snapshots and the
   catalog's signatures checksum on different domains with nothing shared
   but the table, which is built at module initialisation and only read. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

type crc = int

let crc_init = 0xFFFFFFFF

let crc_byte c ch =
  Array.unsafe_get crc_table ((c lxor Char.code ch) land 0xFF) lxor (c lsr 8)

let crc_string c s =
  let c = ref c in
  for i = 0 to String.length s - 1 do
    c := crc_byte !c (String.unsafe_get s i)
  done;
  !c

let rec crc_digits c n =
  let c = if n >= 10 then crc_digits c (n / 10) else c in
  crc_byte c (Char.unsafe_chr (48 + (n mod 10)))

let crc_int c n =
  if n < 0 then invalid_arg "Persist.crc_int: negative";
  crc_digits c n

let crc_hex c = Printf.sprintf "%08x" (c lxor 0xFFFFFFFF)
let crc32 s = Int32.of_int (crc_string crc_init s lxor 0xFFFFFFFF)
let crc32_hex s = crc_hex (crc_string crc_init s)

(* ---- low-level file plumbing (all writes ride the fault seam) ---- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go pos =
    if pos < n then begin
      match Faults.fwrite fd b pos (n - pos) with
      | 0 -> raise (Unix.Unix_error (Unix.EIO, "write", ""))
      | k -> go (pos + k)
    end
  in
  go 0

let fsync_dir path =
  (* the rename itself must survive a crash: sync the directory entry *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let unix_message = function
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | Sys_error m | Failure m -> m
  | e -> Printexc.to_string e

let write_file_atomic ~path content =
  let tmp = path ^ ".tmp" in
  let attempt () =
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    (try
       write_all fd content;
       Unix.fsync fd;
       Unix.close fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    Unix.rename tmp path;
    fsync_dir path
  in
  match attempt () with
  | () -> Ok ()
  | exception e ->
      (* never leave a half-written tmp file behind *)
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "%s: %s" path (unix_message e))

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception (End_of_file | Sys_error _) ->
              Error (path ^ ": truncated while reading"))

(* ---- the snapshot container ---- *)

type record = { kind : string; name : string; payload : string }

let header = "phomd-snapshot 1"

let token_ok s =
  s <> ""
  && String.for_all (fun c -> c > ' ' && c <> '\x7f' && c <> '\n') s

let render records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      if not (token_ok r.kind && token_ok r.name) then
        invalid_arg
          (Printf.sprintf "Persist.write_snapshot: bad record header %S %S"
             r.kind r.name);
      Buffer.add_string buf
        (Printf.sprintf "record %s %s %d %s\n" r.kind r.name
           (String.length r.payload)
           (crc32_hex r.payload));
      Buffer.add_string buf r.payload;
      Buffer.add_char buf '\n')
    records;
  Buffer.add_string buf (Printf.sprintf "end %d\n" (List.length records));
  Buffer.contents buf

let write_snapshot ~path records =
  let content = render records in
  match write_file_atomic ~path content with
  | Ok () -> Ok (String.length content)
  | Error _ as e -> e

(* scan one line starting at [pos]; None when the file ends mid-line
   (a torn tail has no newline) *)
let take_line s pos =
  if pos >= String.length s then None
  else
    match String.index_from_opt s pos '\n' with
    | None -> None
    | Some i -> Some (String.sub s pos (i - pos), i + 1)

let read_snapshot ~path =
  match read_file path with
  | Error m -> Error m
  | Ok content -> (
      match take_line content 0 with
      | Some (h, pos) when h = header ->
          let records = ref [] and quarantined = ref 0 in
          let rec scan pos =
            match take_line content pos with
            | None ->
                (* no end trailer: the tail was torn off *)
                incr quarantined
            | Some (line, pos') -> (
                match String.split_on_char ' ' line with
                | [ "end"; n ] ->
                    (* trailer count guards against silently dropped whole
                       records (each bad record already counted itself) *)
                    let seen = List.length !records + !quarantined in
                    (match int_of_string_opt n with
                    | Some k when k = seen -> ()
                    | _ -> incr quarantined)
                | [ "record"; kind; name; len; crc ] -> (
                    match int_of_string_opt len with
                    | Some len
                      when len >= 0 && pos' + len + 1 <= String.length content
                      ->
                        let payload = String.sub content pos' len in
                        let next = pos' + len + 1 in
                        if
                          crc32_hex payload = crc
                          && content.[pos' + len] = '\n'
                        then begin
                          records := { kind; name; payload } :: !records;
                          scan next
                        end
                        else begin
                          (* checksum or separator mismatch: quarantine the
                             record, resync at its declared end *)
                          incr quarantined;
                          scan next
                        end
                    | _ ->
                        (* unusable length: cannot resync past this point *)
                        incr quarantined)
                | _ -> incr quarantined)
          in
          scan pos;
          Ok (List.rev !records, !quarantined)
      | Some _ | None -> Error (path ^ ": not a phomd snapshot (bad header)"))
