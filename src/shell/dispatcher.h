#ifndef CADDB_SHELL_DISPATCHER_H_
#define CADDB_SHELL_DISPATCHER_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "core/database.h"

namespace caddb {
namespace net {
class Server;
}  // namespace net
namespace replication {
class Follower;
class Shipper;
}  // namespace replication
namespace shell {

/// The command engine behind every caddb front end: one instance executes
/// line commands against a Database. The interactive Shell wraps one of
/// these around stdin/stdout; the network server (net::Server) creates one
/// per session, so `caddb_shell --connect` speaks exactly the verbs the
/// local shell does. Command syntax is documented in shell.h.
///
/// A dispatcher carries per-conversation state (the multi-line `schema <<<`
/// continuation, the sticky ship target, the error count), so two sessions
/// never share one. It is not internally synchronized: the server
/// serializes ExecuteLine calls across sessions under its execution lock.
class Dispatcher {
 public:
  /// `db` is not owned and must outlive the dispatcher.
  explicit Dispatcher(Database* db);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Follower mode: every command sees the follower's current read-only
  /// database (re-fetched per line — each applying poll replaces it),
  /// `replica poll|promote` drive it. Not owned; must outlive the
  /// dispatcher or be detached by promotion.
  void AttachFollower(replication::Follower* follower);

  /// Lets `server status` report on the listener serving this dispatcher
  /// (or one running in the same process). Not owned; must outlive the
  /// dispatcher.
  void AttachServer(net::Server* server);

  /// Read-only role: mutating verbs (schema/DDL, object writes, load/dump,
  /// checkpoint, ship, replica poll/promote/reseed, trace mode
  /// changes, check --repair) fail with kPermissionDenied. Reads, checks
  /// and status/metrics commands pass. This is how a network server serves
  /// a writable primary to read-only sessions and how follower-serving
  /// sessions are locked down regardless of the replica database's own
  /// read-only enforcement.
  void set_read_only(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  /// Repoints the dispatcher at a different database (the server does this
  /// when a follower rebuild replaced the instance). Not owned.
  void set_db(Database* db) { db_ = db; }
  Database* db() { return db_; }

  /// Executes one command line; output (including error reports) goes to
  /// `out`. Returns false when the command asked to quit. Errors are
  /// reported inline, never thrown or returned: the caller always
  /// continues.
  bool ExecuteLine(const std::string& line, std::ostream& out);

  /// True while inside a `schema <<<` block (the REPL changes its prompt).
  bool in_schema_block() const { return in_schema_block_; }

  /// Number of commands that reported an error so far (the exit-code
  /// contract documented in shell.h).
  size_t error_count() const { return error_count_; }

 private:
  /// True for commands a read-only session must not run. `tokens` is the
  /// tokenized line (non-empty).
  static bool IsMutatingCommand(const std::vector<std::string>& tokens);

  bool in_schema_block_ = false;
  std::string schema_buffer_;

  Database* db_;
  size_t error_count_ = 0;
  bool read_only_ = false;

  // Replication wiring. The shipper is created by the first `ship <dir>`;
  // the follower is attached by follower mode; `replica promote` parks the
  // promoted (owned) database here and detaches the follower.
  std::unique_ptr<replication::Shipper> shipper_;
  replication::Follower* follower_ = nullptr;
  std::unique_ptr<Database> promoted_;
  net::Server* server_ = nullptr;
};

}  // namespace shell
}  // namespace caddb

#endif  // CADDB_SHELL_DISPATCHER_H_
