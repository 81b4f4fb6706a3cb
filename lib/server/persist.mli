(** Durable, checksummed state snapshots.

    A snapshot serializes the daemon's warm state as a sequence of
    independently CRC-32-checksummed records inside one file:
    {v
    phomd-snapshot 1
    record <kind> <name> <len> <crc32-hex>
    <len payload bytes>
    ...
    end <record count>
    v}

    {b Atomicity:} {!write_snapshot} writes to [<path>.tmp], fsyncs, then
    renames over [path] and fsyncs the directory, so a crash at any instant
    leaves either the old complete snapshot or the new one — never a torn
    blend. All bytes ride {!Faults.fwrite}, so tests can inject torn
    writes, short writes and [ENOSPC] at exact points.

    {b Quarantine:} {!read_snapshot} verifies every record's checksum
    {e before} returning its payload. A record that fails its CRC, is
    truncated, or has an unparseable header is quarantined — counted and
    skipped, never returned — and damage the scan cannot resync past stops
    it with the remainder quarantined. Callers layer their own decode
    checks on top; this module guarantees no corrupt payload reaches them. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3 / zlib polynomial). *)

val crc32_hex : string -> string
(** Eight lowercase hex digits — the checksum form used on disk and in
    journal lines. *)

(** {2 Streaming}

    The same CRC-32 over bytes fed piece by piece, so a caller can
    checksum text it never builds: [crc_hex (crc_string crc_init s)] is
    [crc32_hex s], however [s] is split. A [crc] is an immutable native
    int that each caller threads itself; nothing is shared but a
    read-only table, so any number of domains can checksum at once. *)

type crc [@@immediate]

val crc_init : crc
val crc_byte : crc -> char -> crc
val crc_string : crc -> string -> crc

val crc_int : crc -> int -> crc
(** Feeds a non-negative int's decimal digits, as [string_of_int] prints
    them. @raise Invalid_argument on a negative int. *)

val crc_hex : crc -> string
(** The checksum of everything fed so far, in {!crc32_hex}'s form. *)

type record = { kind : string; name : string; payload : string }
(** [kind] and [name] are single tokens (no whitespace or control bytes);
    [payload] is arbitrary bytes. *)

val write_snapshot : path:string -> record list -> (int, string) result
(** Atomically replace [path] with a snapshot of [records]; returns the
    byte size written. [Error] carries the path and the OS message; the
    [.tmp] file is removed on failure, and [path] still holds whatever it
    held before.

    @raise Invalid_argument if a record's kind or name is not a clean
    token. *)

val read_snapshot : path:string -> (record list * int, string) result
(** [Ok (records, quarantined)]: every returned record passed its
    checksum; [quarantined] counts entries (or a torn tail) that did not.
    [Error] means the file is unreadable or is not a snapshot at all —
    the caller should treat that as one quarantined snapshot. *)

val write_all : Unix.file_descr -> string -> unit
(** Write all of [s] through {!Faults.fwrite}, resuming after short writes;
    the snapshot writer and the journal's appends both go through it.

    @raise Unix.Unix_error when a write fails or writes nothing. *)

val write_file_atomic : path:string -> string -> (unit, string) result
(** The tmp + fsync + rename discipline by itself, for callers that manage
    their own format (e.g. the daemon's final Prometheus metrics dump):
    after this returns, [path] holds either its previous content or
    exactly [content], and [<path>.tmp] is gone either way. *)
