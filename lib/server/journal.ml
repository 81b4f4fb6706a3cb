(* The recovery journal: an append-only log of catalog mutations since the
   last snapshot.

   Snapshots capture the heavy state; the journal captures the in-flight
   window between snapshots — which graphs/matrices were loaded or
   unloaded, and which artifacts were computed — as one line per event,
   each carrying a CRC-32 of its body so a torn tail (the signature of a
   kill -9 mid-append) is detected, quarantined and never replayed.

   Load events record the source path plus a checksum of the loaded
   value's canonical serialization: replay re-reads the file and refuses
   it if the content drifted since the journaled load. Artifact events
   record only the cache key — replay recomputes the artifact from the
   recovered catalog (deterministic, and vastly smaller on disk than the
   artifact itself).

   fsync policy is the durability/throughput dial: [Always] syncs every
   append (lose nothing short of media failure), [Interval] leaves syncing
   to the daemon's periodic flush (lose at most the interval), [Never]
   trusts the page cache (survives kill -9, not power loss). *)

type fsync = Always | Interval | Never

let fsync_to_string = function
  | Always -> "always"
  | Interval -> "interval"
  | Never -> "never"

let fsync_of_string = function
  | "always" -> Some Always
  | "interval" -> Some Interval
  | "never" -> Some Never
  | _ -> None

type event =
  | Load_graph of { name : string; path : string; crc : string }
  | Load_mat of { name : string; path : string; crc : string }
  | Unload of string
  | Edit of { name : string; op : string; v : int; w : int; crc : string }
      (** [op] is ["add"] or ["del"]; [crc] is the content signature of the
          graph {e after} the edit, so replay verifies convergence *)
  | Artifact of string

let header = "phomd-journal 1"

(* paths may contain spaces or control bytes; percent-encode so every
   event stays one clean space-delimited line *)
let encode_path s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c <= ' ' || c = '%' || c = '\x7f' then
        Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let decode_path s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some c -> Buffer.add_char buf (Char.chr (c land 0xff)); go (i + 3)
        | None -> Buffer.add_char buf s.[i]; go (i + 1)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let body_of_event = function
  | Load_graph { name; path; crc } ->
      Printf.sprintf "load-graph %s %s %s" name (encode_path path) crc
  | Load_mat { name; path; crc } ->
      Printf.sprintf "load-mat %s %s %s" name (encode_path path) crc
  | Unload name -> "unload " ^ name
  | Edit { name; op; v; w; crc } ->
      Printf.sprintf "edit %s %s %d %d %s" name op v w crc
  | Artifact token -> "artifact " ^ token

let event_of_body body =
  match String.split_on_char ' ' body with
  | [ "load-graph"; name; path; crc ] ->
      Some (Load_graph { name; path = decode_path path; crc })
  | [ "load-mat"; name; path; crc ] ->
      Some (Load_mat { name; path = decode_path path; crc })
  | [ "unload"; name ] -> Some (Unload name)
  | [ "edit"; name; op; v; w; crc ] -> (
      match (op, int_of_string_opt v, int_of_string_opt w) with
      | ("add" | "del"), Some v, Some w when v >= 0 && w >= 0 ->
          Some (Edit { name; op; v; w; crc })
      | _ -> None)
  | [ "artifact"; token ] -> Some (Artifact token)
  | _ -> None

let line_of_event e =
  let body = body_of_event e in
  Printf.sprintf "J1 %s %s\n" (Persist.crc32_hex body) body

(* ---- the appender ---- *)

type t = {
  path : string;
  fsync : fsync;
  mutable fd : Unix.file_descr option;
  mutable appended : int;
  mutable errors : int;
  mutable dirty : bool;  (* bytes written since the last fsync *)
  lock : Mutex.t;  (* appends come from pool workers and the loop alike *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let open_append ~path ~fsync =
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd -> (
      let t =
        {
          path;
          fsync;
          fd = Some fd;
          appended = 0;
          errors = 0;
          dirty = false;
          lock = Mutex.create ();
        }
      in
      (* a fresh (or empty) journal needs its header before any event *)
      match Unix.fstat fd with
      | { Unix.st_size = 0; _ } -> (
          match Persist.write_all fd (header ^ "\n") with
          | () ->
              if fsync = Always then
                (try Unix.fsync fd with Unix.Unix_error _ -> ());
              Ok t
          | exception e ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              let msg =
                match e with
                | Unix.Unix_error (ue, _, _) -> Unix.error_message ue
                | e -> Printexc.to_string e
              in
              Error (Printf.sprintf "%s: %s" path msg))
      | _ -> Ok t
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let append t e =
  locked t (fun () ->
      match t.fd with
      | None -> ()
      | Some fd -> (
          match Persist.write_all fd (line_of_event e) with
          | () ->
              t.appended <- t.appended + 1;
              t.dirty <- true;
              if t.fsync = Always then begin
                (try Unix.fsync fd with Unix.Unix_error _ -> ());
                t.dirty <- false
              end
          | exception _ ->
              (* an append that failed (ENOSPC, a torn device) must not
                 kill the serving path; the daemon surfaces [errors] as a
                 degraded health state *)
              t.errors <- t.errors + 1))

let flush t =
  locked t (fun () ->
      match t.fd with
      | Some fd when t.dirty && t.fsync <> Never ->
          (try Unix.fsync fd with Unix.Unix_error _ -> ());
          t.dirty <- false
      | _ -> ())

let rotate t =
  locked t (fun () ->
      match t.fd with
      | None -> ()
      | Some fd -> (
          (* a snapshot just captured everything the journal recorded; an
             O_APPEND fd writes at the (new) end after truncation, so the
             fd survives the rotation *)
          match
            Unix.ftruncate fd 0;
            Persist.write_all fd (header ^ "\n")
          with
          | () ->
              if t.fsync <> Never then
                (try Unix.fsync fd with Unix.Unix_error _ -> ());
              t.dirty <- false
          | exception _ -> t.errors <- t.errors + 1))

let close t =
  locked t (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
          if t.dirty && t.fsync <> Never then
            (try Unix.fsync fd with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.fd <- None)

let appended t = locked t (fun () -> t.appended)
let errors t = locked t (fun () -> t.errors)
let path t = t.path

(* ---- replay ---- *)

let replay ~path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let read_line_opt () =
            match input_line ic with
            | l -> Some l
            | exception End_of_file -> None
          in
          match read_line_opt () with
          | Some h when h = header ->
              let events = ref [] and quarantined = ref 0 in
              let rec go () =
                match read_line_opt () with
                | None -> ()
                | Some line -> (
                    (* a bad line means the append was torn (or the file
                       corrupted); nothing after it can be trusted to be
                       in sequence, so replay stops here *)
                    match String.split_on_char ' ' line with
                    | "J1" :: crc :: rest
                      when rest <> []
                           && Persist.crc32_hex (String.concat " " rest) = crc
                      -> (
                        match event_of_body (String.concat " " rest) with
                        | Some e ->
                            events := e :: !events;
                            go ()
                        | None -> incr quarantined)
                    | _ -> incr quarantined)
              in
              go ();
              Ok (List.rev !events, !quarantined)
          | Some _ -> Error (path ^ ": not a phomd journal (bad header)")
          | None -> Ok ([], 0))
