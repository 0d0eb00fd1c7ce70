(** Syscall hardening shared by the service transports and the client.

    Every helper here exists because a raw [Unix] call has a failure
    mode that must not kill a long-running daemon: [EINTR] when a
    signal lands mid-syscall, [EAGAIN]/[EWOULDBLOCK] on nonblocking
    descriptors, [ECONNABORTED] when a client vanishes between
    [select] readiness and [accept], [EMFILE]/[ENFILE] on descriptor
    exhaustion, and [EPIPE]/[ECONNRESET] when the peer is gone. *)

val retry_intr : (unit -> 'a) -> 'a
(** Run a syscall thunk, retrying for as long as it raises [EINTR].
    Every other outcome (value or exception) passes through. *)

val sleep : float -> unit
(** Sleep for (at least) the given number of seconds, resuming after
    [EINTR] instead of raising — a signal-storm-safe
    [Unix.sleepf]. Negative and zero durations return immediately. *)

val read_fd : Unix.file_descr -> Bytes.t -> [ `Data of int | `Eof | `Again | `Closed ]
(** One [Unix.read] into the buffer, with the syscall-level failure
    modes folded into the result: [`Data n] for [n] fresh bytes,
    [`Eof] on end of stream, [`Again] when a nonblocking descriptor
    has nothing yet, [`Closed] when the peer reset the connection.
    [EINTR] is retried internally. *)

val write_fd : Unix.file_descr -> Bytes.t -> int -> int -> [ `Wrote of int | `Again | `Closed ]
(** One [Unix.write] of [len] bytes at [off], same folding: [`Wrote n]
    bytes accepted by the kernel, [`Again] when a nonblocking
    descriptor's buffer is full, [`Closed] on [EPIPE]/[ECONNRESET].
    [EINTR] is retried internally. *)

val write_all : Unix.file_descr -> string -> bool
(** Blocking write of the whole string, retrying [EINTR] and short
    writes. Returns [false] (instead of raising) when the peer is
    gone. Only for blocking descriptors, such as the {!Journal}'s file;
    the event loop's client descriptors use {!write_fd} and buffers. *)

val accept_ready :
  ?limit:int -> Unix.file_descr -> (Unix.file_descr * Unix.sockaddr) list
(** Accept every connection currently pending on a (nonblocking)
    listening socket, up to [limit] (default 64) per call: retries
    [EINTR], skips clients that aborted between [select] and [accept]
    ([ECONNABORTED], and the in-progress TCP errors [EPROTO],
    [ENETDOWN], [EHOSTUNREACH], [ENETUNREACH], [ETIMEDOUT]), and stops
    — returning what it has — on [EWOULDBLOCK]/[EAGAIN] or descriptor
    exhaustion ([EMFILE], [ENFILE], [ENOBUFS], [ENOMEM]). Never
    raises for a connection-level reason. Accepted descriptors are
    nonblocking and close-on-exec. *)

val parse_endpoint : string -> [ `Tcp of string * int | `Unix of string ]
(** [HOST:PORT] (last colon splits, so bracketed IPv6 literals work)
    becomes [`Tcp]; anything else is a Unix-domain socket path. *)

val resolve_tcp : string -> int -> Unix.sockaddr
(** Resolve a host string (name or literal) and port to a sockaddr.
    Raises [Failure] with a readable message when resolution fails. *)
