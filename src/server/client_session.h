// Per-connection serving state: privacy-budget accounting that makes one
// socket connection behave like one release::ReleaseSession.
//
// A ReleaseSession charges ε once per distinct release and refuses to
// overdraw its total; a connection to the serving front end gets the same
// contract here.  Every fit-carrying request (Fit, QueryBatch,
// SeqQueryBatch) charges its spec's ε against this session the *first*
// time the session touches that synopsis key — repeating a spec is free,
// exactly like re-querying a released synopsis in process, because queries
// are pure post-processing.  An exhausted budget answers OutOfRange (the
// Status a PrivacyBudget overdraw maps to on this surface) and never
// aborts: budget exhaustion is expected client behaviour, not a bug.
//
// A charge whose requests all *fail* (shed load, expired deadline, invalid
// spec caught server-side) is refunded, so transient overload cannot eat a
// tenant's budget.  Requests on one key may overlap — a pipelined repeat
// rides the first request's charge for free — so every admitted request is
// a *holder* of its key until it settles, and the refund waits for the
// last holder: once any holder delivered answers, the key stays paid.
//
// Thread-safe: the event loop charges on the loop thread and settles from
// pool-thread completion callbacks.
#ifndef PRIVTREE_SERVER_CLIENT_SESSION_H_
#define PRIVTREE_SERVER_CLIENT_SESSION_H_

#include <cstddef>
#include <map>
#include <string>

#include "core/sync.h"
#include "dp/status.h"
#include "serve/synopsis_cache.h"

namespace privtree::server {

class ClientSession {
 public:
  /// `budget_total` is the Σε ceiling across this session's fits; 0 means
  /// unlimited (the default when the server enforces no session budget).
  explicit ClientSession(double budget_total) : total_(budget_total) {}

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  /// Charges `epsilon` for `key` unless this session already paid for it,
  /// and registers the caller as one holder of the key; every OK must be
  /// matched by exactly one Settle.  OutOfRange (and nothing registered)
  /// when the charge would overdraw the budget.
  Status Charge(const serve::SynopsisKey& key, double epsilon) {
    MutexLock lk(mu_);
    if (auto it = paid_.find(key); it != paid_.end()) {
      ++it->second.in_flight;
      return Status::OK();
    }
    if (total_ > 0.0 && spent_ + epsilon > total_ * (1.0 + 1e-12)) {
      return Status::OutOfRange(
          "session privacy budget exhausted: spent " +
          std::to_string(spent_) + " of " + std::to_string(total_) +
          ", request needs " + std::to_string(epsilon));
    }
    spent_ += epsilon;
    paid_.emplace(key, Holders{1, false});
    return Status::OK();
  }

  /// Retires one holder of `key`; `delivered` says whether its request
  /// released answers.  The charge is refunded only when the last holder
  /// settles and no holder since the charge delivered.
  void Settle(const serve::SynopsisKey& key, double epsilon,
              bool delivered) {
    MutexLock lk(mu_);
    const auto it = paid_.find(key);
    if (it == paid_.end()) return;
    Holders& holders = it->second;
    --holders.in_flight;
    holders.delivered = holders.delivered || delivered;
    if (holders.in_flight == 0 && !holders.delivered) {
      paid_.erase(it);
      spent_ -= epsilon;
    }
  }

  double budget_total() const { return total_; }

  double spent() const {
    MutexLock lk(mu_);
    return spent_;
  }

 private:
  struct Holders {
    std::size_t in_flight = 0;  ///< Admitted requests not yet settled.
    bool delivered = false;     ///< Some holder released answers.
  };

  const double total_;
  mutable Mutex mu_;
  double spent_ GUARDED_BY(mu_) = 0.0;
  std::map<serve::SynopsisKey, Holders> paid_ GUARDED_BY(mu_);
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_CLIENT_SESSION_H_
