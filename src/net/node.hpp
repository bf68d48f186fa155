// A simulated host.
//
// A node bundles an identity, a location (site), a single-server CPU and a
// message receiver.  The network delivers raw bytes to the receiver; what
// runs on top (the ORB) decides how much CPU each message costs.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/ids.hpp"
#include "sim/cpu_queue.hpp"
#include "util/bytes.hpp"

namespace newtop {

class Node {
public:
    /// The payload is handed over by value: the receiver owns the wire
    /// buffer and may keep, move, or recycle it (the ORB pools retired
    /// buffers for its next encode).
    using Receiver = std::function<void(NodeId from, Bytes payload)>;
    using RestartHook = std::function<void()>;

    Node(NodeId id, SiteId site, Scheduler& scheduler)
        : id_(id), site_(site), scheduler_(&scheduler), cpu_(scheduler) {}

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    [[nodiscard]] NodeId id() const { return id_; }
    [[nodiscard]] SiteId site() const { return site_; }
    [[nodiscard]] bool crashed() const { return crashed_; }

    /// Which life of this host is currently running.  Bumped by restart();
    /// the network stamps every message with the destination's incarnation
    /// at send time and drops deliveries addressed to an earlier life.
    [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }

    /// When the most recent crash happened, or -1 if the node never
    /// crashed.  Recovery code reads this to compute crash→recovered MTTR.
    [[nodiscard]] SimTime crashed_at() const { return crashed_at_; }

    CpuQueue& cpu() { return cpu_; }

    /// Install the message handler.  A node without a receiver drops
    /// everything delivered to it.
    void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }
    [[nodiscard]] const Receiver& receiver() const { return receiver_; }

    /// Install a hook that runs after each successful restart(), once the
    /// node is live again with a bumped incarnation and an empty receiver.
    /// Recovery code uses it to build a fresh process image (a new ORB that
    /// re-wires the receiver, a new GCS endpoint, re-registered servants).
    void set_restart_hook(RestartHook hook) { restart_hook_ = std::move(hook); }

    /// Called by the network at message-arrival time.
    void deliver(NodeId from, Bytes payload) {
        if (!crashed_ && receiver_) receiver_(from, std::move(payload));
    }

    /// Crash-stop the node: pending CPU work is dropped and all future
    /// deliveries are discarded.  The process is gone for good — if the
    /// host restart()s, it comes back as a *fresh* process (new
    /// incarnation, no receiver) that must rejoin groups from scratch,
    /// matching the paper's crash-stop failure model.
    void crash() {
        crashed_ = true;
        crashed_at_ = scheduler_->now();
        cpu_.kill();
    }

    /// Bring a crashed host back: bump the incarnation, revive the CPU with
    /// an empty queue, and clear the receiver (the dead process's handler
    /// must not see new-life traffic).  Runs the restart hook so recovery
    /// code can stand up a new process image.  Returns false (and does
    /// nothing) if the node is not crashed.
    bool restart() {
        if (!crashed_) return false;
        crashed_ = false;
        ++incarnation_;
        receiver_ = nullptr;
        cpu_.revive();
        if (restart_hook_) restart_hook_();
        return true;
    }

private:
    NodeId id_;
    SiteId site_;
    Scheduler* scheduler_;
    CpuQueue cpu_;
    Receiver receiver_;
    RestartHook restart_hook_;
    bool crashed_{false};
    std::uint32_t incarnation_{0};
    SimTime crashed_at_{-1};
};

}  // namespace newtop
