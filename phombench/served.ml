(* The real phomd binary as a child process, and line connections to its
   Unix socket. Paths are relative to the working directory the child
   inherits, which keeps socket paths short whatever the checkout path. *)

let now = Unix.gettimeofday

type daemon = { pid : int; out : Unix.file_descr; socket : string }

(* every child still running, so an aborted run can still reap them *)
let live : daemon list ref = ref []

let rec select_retry r w timeout =
  try Unix.select r w [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w timeout

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* start phomd and return once its banner says it is listening *)
let spawn ~phomd ~socket args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((phomd :: "--socket" :: socket :: "--jobs" :: "2" :: args)) in
  let pid = Unix.create_process phomd argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let d = { pid; out = out_r; socket } in
  live := d :: !live;
  let banner = Buffer.create 128 and chunk = Bytes.create 4096 in
  let deadline = now () +. 60. in
  while not (contains ~needle:"listening" (Buffer.contents banner)) do
    let left = deadline -. now () in
    if left <= 0. then failwith "phomd did not start listening within 60 s";
    match select_retry [ out_r ] [] left with
    | [], _, _ -> ()
    | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "phomd exited before listening";
        Buffer.add_subbytes banner chunk 0 n
  done;
  d

(* peak resident set of the child (VmHWM), in MiB *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM in /proc status"
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

(* CPU time the child has used so far, in seconds: the sum over its
   threads (its domains among them) of the scheduler's run time *)
let cpu_seconds d =
  let dir = Printf.sprintf "/proc/%d/task" d.pid in
  Array.fold_left
    (fun acc task ->
      match open_in (Printf.sprintf "%s/%s/schedstat" dir task) with
      | exception Sys_error _ -> acc (* a thread that just exited *)
      | ic ->
          let ns =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> Scanf.sscanf (input_line ic) "%f" Fun.id)
          in
          acc +. (ns /. 1e9))
    0. (Sys.readdir dir)

(* ---- connections ---- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

(* a complete reply line already buffered, if any *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

let chunk = Bytes.create 65536

(* read what the socket has; raises [End_of_file] when the peer closed *)
let fill c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then raise End_of_file;
  Buffer.add_subbytes c.buf chunk 0 n

let read_line ?(timeout = 60.) c =
  let deadline = now () +. timeout in
  let rec go () =
    match take_line c with
    | Some l -> l
    | None ->
        let left = deadline -. now () in
        if left <= 0. then failwith "timed out waiting for a reply";
        (match select_retry [ c.fd ] [] left with [], _, _ -> () | _ -> fill c);
        go ()
  in
  go ()

let request c line =
  send c line;
  read_line c

(* the daemon's metrics registry as (series, value) pairs *)
let stats c =
  let header = request c "stats" in
  let n =
    match String.split_on_char ' ' header with
    | [ "ok"; "stats"; n ] -> int_of_string n
    | _ -> failwith ("unexpected stats reply: " ^ header)
  in
  List.init n (fun _ -> read_line c)
  |> List.filter_map (fun l ->
         match String.rindex_opt l ' ' with
         | None -> None
         | Some i -> (
             match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
             | Some v -> Some (String.sub l 0 i, v)
             | None -> None))

(* a metric summed over all its label sets *)
let stat stats name =
  List.fold_left
    (fun acc (series, v) ->
      let n = String.length name in
      if series = name || (String.length series > n && String.sub series 0 n = name && series.[n] = '{')
      then acc +. v
      else acc)
    0. stats

(* stop the daemon: ask it to shut down, then wait for it (killing it if
   the drain overruns) so no child outlives the run *)
let stop d =
  (try
     let c = connect d.socket in
     ignore (request c "shutdown");
     close c
   with _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  (try Unix.close d.out with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []
