// Membership agreement: coordinator-driven view changes with a flush phase
// providing virtual synchrony — every member that installs view v+1 has
// delivered the same set of messages in view v, in the same total order.
//
// Round structure (per group):
//   trigger (suspicion / join / leave)
//     -> coordinator PROPOSEs (new_epoch, membership)
//     -> old members reply FLUSH (their unstable messages + order records)
//     -> coordinator INSTALLs (view + the union cut)
//     -> members deliver the cut deterministically, reset, resume.
// A stalled round times out; the next-ranked unsuspected member takes over
// with a higher epoch.  Concurrent rounds are resolved by (epoch,
// coordinator) precedence.  Partitions yield disjoint successor views on
// each side (the partitionable model of NewTop).
#include "gcs/endpoint.hpp"

#include <algorithm>
#include <utility>

#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

namespace {

/// Deterministic delivery order for a view-change cut: sequencer-assigned
/// messages first (in assignment order), the rest by (ts, sender).  All
/// members compute the same cut, so all deliver in the same order.
std::vector<DataMsg> sort_cut(std::map<MsgRef, DataMsg> pending,
                              const std::vector<std::pair<std::uint64_t, MsgRef>>& orders) {
    std::vector<DataMsg> out;
    std::map<std::uint64_t, MsgRef> assigned(orders.begin(), orders.end());
    for (const auto& [order, ref] : assigned) {
        const auto it = pending.find(ref);
        if (it == pending.end()) continue;
        out.push_back(std::move(it->second));
        pending.erase(it);
    }
    std::vector<DataMsg> rest;
    rest.reserve(pending.size());
    for (auto& [ref, msg] : pending) rest.push_back(std::move(msg));
    std::sort(rest.begin(), rest.end(), [](const DataMsg& a, const DataMsg& b) {
        return std::tie(a.ts, a.sender) < std::tie(b.ts, b.sender);
    });
    out.insert(out.end(), std::make_move_iterator(rest.begin()),
               std::make_move_iterator(rest.end()));
    return out;
}

}  // namespace

GroupCommEndpoint::Group& GroupCommEndpoint::ensure_skeleton(GroupId id) {
    if (Group* g = find_group(id)) return *g;
    const Directory::GroupInfo* info = directory_->find_group(id);
    NEWTOP_ENSURES(info != nullptr, "group message for a group the directory never saw");
    Group& g = groups_[id];
    g.id = id;
    g.name = info->name;
    g.config = info->config;
    return g;
}

void GroupCommEndpoint::install_first_view(Group& g) {
    InstallMsg self_install;
    self_install.group = g.id;
    self_install.view = View{g.id, 1, {id_}};
    self_install.coordinator = id_;
    // The install always carries the authoritative config.  For a refound
    // this is the *current* config from the directory (kept fresh by
    // update_group_config), so a lineage restarted after a reconfiguration
    // resumes under the reconfigured policies, not the creation-time ones.
    self_install.config = g.config;
    self_install.config_epoch = g.config_epoch;
    handle_install(self_install);
}

// -- join / leave ----------------------------------------------------------------

void GroupCommEndpoint::on_join_retry(const std::string& name) {
    if (process_crashed()) return;
    const auto pending = pending_joins_.find(name);
    if (pending == pending_joins_.end()) return;
    const Directory::GroupInfo* info = directory_->find_group(name);
    if (info == nullptr) {
        pending_joins_.erase(pending);
        return;
    }
    if (is_member(info->id)) {
        pending_joins_.erase(pending);
        return;
    }
    // If every contact the directory remembers has been evicted as dead
    // (and never re-registered), nobody is left to admit us: the whole
    // group crashed.  Re-found it as a fresh single-member lineage — other
    // recovered replicas then join through the normal path.  The check is
    // deterministic and race-free because the directory is shared
    // bootstrap state: the first re-founder's install refreshes the
    // contact hint synchronously, so a second reborn member sees a live
    // contact and joins instead of founding a rival lineage.
    bool any_live_contact = false;
    for (const EndpointId contact : info->contact_hint) {
        if (contact != id_ && !directory_->known_defunct(contact)) {
            any_live_contact = true;
            break;
        }
    }
    if (!any_live_contact) {
        metrics().add(obs::metric::kGcsGroupRefounds);
        pending_joins_.erase(pending);
        Group& g = ensure_skeleton(info->id);
        install_first_view(g);
        return;
    }
    const JoinReq req{info->id, id_};
    for (const EndpointId contact : info->contact_hint) {
        if (contact != id_) send_wire(contact, encode_gcs_message(req));
    }
    pending->second = orb_->scheduler().schedule_after(
        2 * info->config.view_change_timeout, [this, name] { on_join_retry(name); });
}

void GroupCommEndpoint::handle_join(const JoinReq& msg) {
    Group* g = find_group(msg.group);
    if (g == nullptr || !g->installed || !g->view.contains(id_)) return;
    if (g->view.contains(msg.joiner)) {
        // The joiner is already in — it must have missed the install; any
        // member may re-send it (no cut: the joiner delivers nothing old).
        send_wire(msg.joiner, encode_gcs_message(InstallMsg{g->id, g->view, id_, {}, {}, g->config,
                                                            g->config_epoch, 0}));
        return;
    }
    if (g->pending_joiners.insert(msg.joiner).second) {
        // First time we hear of this joiner: gossip so the coordinator
        // learns even if the joiner's directory hint was stale.
        multicast_wire(*g, encode_gcs_message(msg));
    }
    maybe_start_view_change(*g);
    // The pending join makes the liveness mechanisms active even for a
    // quiet event-driven group (see mechanisms_active): if the would-be
    // coordinator is dead, the suspicion scan unseats it.
    g = find_group(msg.group);
    if (g != nullptr) kick_liveness(*g);
}

void GroupCommEndpoint::handle_leave(const LeaveReq& msg) {
    Group* g = find_group(msg.group);
    if (g == nullptr || !g->installed) return;
    if (!g->view.contains(msg.leaver)) return;
    g->pending_leavers.insert(msg.leaver);
    maybe_start_view_change(*g);
    g = find_group(msg.group);
    if (g != nullptr) kick_liveness(*g);
}

// -- suspicion -------------------------------------------------------------------

void GroupCommEndpoint::note_suspect(Group& g, EndpointId suspect, bool broadcast) {
    if (suspect == id_ || !g.view.contains(suspect)) return;
    if (!g.suspects.insert(suspect).second) return;
    const SimTime now = orb_->scheduler().now();
    g.suspected_at.emplace(suspect, now);
    metrics().trace(obs::TraceKind::kSuspected, now, id_.value(), g.id.value(),
                    suspect.value());
    NEWTOP_DEBUG("endpoint " << id_ << " suspects " << suspect << " in group " << g.id);
    if (broadcast) {
        multicast_wire(g, encode_gcs_message(SuspectMsg{g.id, g.view.epoch, id_, {suspect}}));
    }
}

void GroupCommEndpoint::handle_suspect(const SuspectMsg& msg) {
    Group* g = find_group(msg.group);
    if (g == nullptr || !g->installed || msg.epoch != g->view.epoch) return;
    for (const EndpointId suspect : msg.suspects) note_suspect(*g, suspect, false);
    maybe_start_view_change(*g);
}

// -- round orchestration ------------------------------------------------------------

void GroupCommEndpoint::maybe_start_view_change(Group& g) {
    if (!g.installed || !g.view.contains(id_)) return;
    const bool need = !g.suspects.empty() || !g.pending_joiners.empty() ||
                      !g.pending_leavers.empty() || g.pending_config.has_value();
    if (!need) return;
    if (first_unsuspected(g) != id_) return;  // the trigger was gossiped to everyone

    if (g.state == Group::State::kViewChange) {
        if (!g.leading) return;  // a higher round owns the group right now
        // Restart only if the running round can no longer finish (a member
        // we are waiting on got suspected) — otherwise let it complete and
        // handle the new trigger in a follow-up round.
        const bool stalled = std::any_of(
            g.vc_expected_flush.begin(), g.vc_expected_flush.end(),
            [&](EndpointId m) { return g.suspects.contains(m) && !g.vc_flushed.contains(m); });
        if (!stalled) return;
    }
    begin_round(g);
}

EndpointId GroupCommEndpoint::first_unsuspected(const Group& g) const {
    const auto it = std::find_if(g.view.members.begin(), g.view.members.end(),
                                 [&](EndpointId member) { return !g.suspects.contains(member); });
    NEWTOP_ENSURES(it != g.view.members.end(), "self is never suspected, so a coordinator exists");
    return *it;
}

void GroupCommEndpoint::begin_round(Group& g) {
    g.state = Group::State::kViewChange;
    g.leading = true;
    g.vc_epoch = std::max(g.view.epoch, g.vc_epoch) + 1;
    g.vc_coordinator = id_;
    metrics().trace(obs::TraceKind::kViewChangeBegun, orb_->scheduler().now(), id_.value(),
                    g.id.value(), g.vc_epoch);
    g.vc_flushed.clear();
    g.vc_cut.clear();
    g.vc_orders.clear();

    // Proposed membership: survivors minus leavers plus joiners.
    g.vc_members.clear();
    for (const EndpointId member : g.view.members) {
        if (!g.suspects.contains(member) && !g.pending_leavers.contains(member)) {
            g.vc_members.push_back(member);
        }
    }
    for (const EndpointId joiner : g.pending_joiners) {
        if (!g.suspects.contains(joiner)) g.vc_members.push_back(joiner);
    }
    std::sort(g.vc_members.begin(), g.vc_members.end());
    g.vc_members.erase(std::unique(g.vc_members.begin(), g.vc_members.end()),
                       g.vc_members.end());

    // Everyone that was in the old view and isn't suspected must flush —
    // including leavers (their messages are part of the cut).
    g.vc_expected_flush.clear();
    for (const EndpointId member : g.view.members) {
        if (!g.suspects.contains(member)) g.vc_expected_flush.insert(member);
    }

    ProposeMsg propose{g.id, g.view.epoch, g.vc_epoch, id_, g.vc_members};
    for (const EndpointId member : g.vc_expected_flush) {
        if (member != id_) send_wire(member, encode_gcs_message(propose));
    }
    for (const EndpointId joiner : g.vc_members) {
        if (joiner != id_ && !g.vc_expected_flush.contains(joiner)) {
            send_wire(joiner, encode_gcs_message(propose));
        }
    }

    // Our own flush, locally.
    FlushMsg own = make_flush(g, g.vc_epoch, id_);
    add_flush(g, id_, std::move(own.unstable), own.orders);

    orb_->scheduler().cancel(g.vc_timer);
    const GroupId id = g.id;
    g.vc_timer = orb_->scheduler().schedule_after(g.config.view_change_timeout,
                                                  [this, id] { on_vc_timeout(id); });
    finish_if_flushes_complete(g);
}

void GroupCommEndpoint::enter_view_change(Group& g, ViewEpoch new_epoch,
                                          EndpointId coordinator) {
    g.state = Group::State::kViewChange;
    g.leading = false;
    g.vc_epoch = new_epoch;
    g.vc_coordinator = coordinator;
    metrics().trace(obs::TraceKind::kViewChangeBegun, orb_->scheduler().now(), id_.value(),
                    g.id.value(), new_epoch);
    orb_->scheduler().cancel(g.vc_timer);
    const GroupId id = g.id;
    // Followers wait noticeably longer than the coordinator's own retry
    // period: a round stalled on a *third* member makes the coordinator
    // re-propose (resetting this timer) — suspecting the healthy
    // coordinator at the same instant would splinter the group.
    g.vc_timer = orb_->scheduler().schedule_after(5 * g.config.view_change_timeout / 2,
                                                  [this, id] { on_vc_timeout(id); });
}

void GroupCommEndpoint::handle_propose(const ProposeMsg& msg) {
    Group& g = ensure_skeleton(msg.group);
    if (g.installed && msg.new_epoch <= g.view.epoch) return;  // stale round
    if (g.state == Group::State::kViewChange) {
        const auto current = std::pair{g.vc_epoch, g.vc_coordinator};
        const auto offered = std::pair{msg.new_epoch, msg.coordinator};
        if (offered <= current) return;  // our round has precedence
    }
    enter_view_change(g, msg.new_epoch, msg.coordinator);

    if (g.installed && g.view.contains(id_)) {
        metrics().add(obs::metric::kGcsFlushesSent);
        metrics().trace(obs::TraceKind::kFlushSent, orb_->scheduler().now(), id_.value(),
                        g.id.value(), msg.new_epoch);
        send_wire(msg.coordinator,
                  encode_gcs_message(make_flush(g, msg.new_epoch, msg.coordinator)));
    }
}

FlushMsg GroupCommEndpoint::make_flush(const Group& g, ViewEpoch new_epoch,
                                       EndpointId coordinator) const {
    FlushMsg flush;
    flush.group = g.id;
    flush.new_epoch = new_epoch;
    flush.coordinator = coordinator;
    flush.sender = id_;
    flush.unstable.reserve(g.unstable.size());
    for (const auto& [ref, kept] : g.unstable) {
        flush.unstable.push_back(decode_data_frame(kept.frame));
    }
    if (const auto* sequencer = std::get_if<SequencerOrder>(&g.engine)) {
        const auto& log = sequencer->assignment_log();
        flush.orders.assign(log.begin(), log.end());
    }
    return flush;
}

void GroupCommEndpoint::handle_flush(const FlushMsg& msg) {
    Group* g = find_group(msg.group);
    if (g == nullptr || g->state != Group::State::kViewChange) return;
    if (!g->leading || msg.new_epoch != g->vc_epoch || msg.coordinator != id_) return;
    add_flush(*g, msg.sender, msg.unstable, msg.orders);
    finish_if_flushes_complete(*g);
}

void GroupCommEndpoint::add_flush(Group& g, EndpointId sender, std::vector<DataMsg> unstable,
                                  const std::vector<std::pair<std::uint64_t, MsgRef>>& orders) {
    g.vc_flushed.insert(sender);
    for (auto& data : unstable) {
        const MsgRef ref{data.sender, data.seq};
        g.vc_cut.try_emplace(ref, std::move(data));
    }
    for (const auto& [order, ref] : orders) g.vc_orders.emplace(order, ref);
}

void GroupCommEndpoint::finish_if_flushes_complete(Group& g) {
    if (!g.leading) return;
    for (const EndpointId member : g.vc_expected_flush) {
        if (!g.vc_flushed.contains(member)) return;
    }

    InstallMsg install;
    install.group = g.id;
    install.view = View{g.id, g.vc_epoch, g.vc_members};
    install.coordinator = id_;
    // Configuration decision for the new view.  The coordinator's pending
    // proposal speaks for every survivor: proposals travel the totally-
    // ordered stream, so all members that flushed hold the same last-wins
    // pending value.  A proposal that is only *in the cut* (not yet
    // delivered here) is deliberately not honoured now — its delivery during
    // deliver_cut re-arms pending_config and a follow-up round applies it.
    if (g.pending_config.has_value()) {
        install.config = g.pending_config->next;
        install.config_epoch = g.config_epoch + 1;
        install.applied_nonce = g.pending_config->nonce;
    } else {
        install.config = g.config;
        install.config_epoch = g.config_epoch;
    }
    install.cut.reserve(g.vc_cut.size());
    for (const auto& [ref, data] : g.vc_cut) install.cut.push_back(data);
    install.orders.assign(g.vc_orders.begin(), g.vc_orders.end());

    std::set<EndpointId> recipients(g.vc_expected_flush.begin(), g.vc_expected_flush.end());
    recipients.insert(g.vc_members.begin(), g.vc_members.end());
    for (const EndpointId member : recipients) {
        if (member != id_) send_wire(member, encode_gcs_message(install));
    }
    handle_install(install);
}

// -- install ------------------------------------------------------------------------

void GroupCommEndpoint::deliver_cut(Group& g, const InstallMsg& msg) {
    // Everything still held locally plus everything in the cut, minus what
    // we already delivered, in the agreed order.
    std::map<MsgRef, DataMsg> pending;
    auto absorb = [&](std::vector<DataMsg> batch) {
        for (auto& data : batch) {
            if (!orders_like_app(data.kind)) continue;
            if (data.epoch != g.view.epoch) continue;
            if (data.seq < delivered_prefix(g, data.sender)) continue;
            const MsgRef ref{data.sender, data.seq};
            pending.try_emplace(ref, std::move(data));
        }
    };
    absorb(drain_pending(g.engine));
    absorb({std::make_move_iterator(g.release_queue.begin()),
            std::make_move_iterator(g.release_queue.end())});
    g.release_queue.clear();
    absorb(msg.cut);

    // Cut delivery ignores cross-group barriers: blocking the flush on
    // another group's progress could deadlock two concurrent view changes.
    // Causality across groups is re-established from the new view onwards.
    std::uint64_t flushed = 0;
    for (DataMsg& data : sort_cut(std::move(pending), msg.orders)) {
        deliver_to_app(g, std::move(data));
        ++flushed;
    }
    // detail = messages the cut flushed; marks the virtual-synchrony
    // boundary of the closing view in the event stream.
    metrics().trace(obs::TraceKind::kCutDelivered, orb_->scheduler().now(), id_.value(),
                    g.id.value(), flushed);
}

void GroupCommEndpoint::install_view(Group& g, const InstallMsg& msg) {
    const GroupId group_id = g.id;
    const std::vector<EndpointId> old_members = g.installed ? g.view.members
                                                            : std::vector<EndpointId>{};
    const bool was_member = g.installed && g.view.contains(id_);

    stop_liveness(g);
    orb_->scheduler().cancel(g.vc_timer);
    g.vc_timer = 0;
    orb_->scheduler().cancel(g.order_flush_timer);
    g.order_flush_timer = 0;
    for (auto& [member, stream] : g.inbound) {
        orb_->scheduler().cancel(stream.nack_timer);
        stream.nack_timer = 0;
    }

    if (!msg.view.contains(id_)) {
        // We left, were ejected, or this is a stray install: drop the group.
        groups_.erase(group_id);
        if (was_member && removed_handler_) removed_handler_(group_id);
        return;
    }

    g.view = msg.view;
    g.installed = true;
    g.view_installed_at = orb_->scheduler().now();
    metrics().add(obs::metric::kGcsViewsInstalled);
    // detail packs {membership digest, epoch}: two sides of a partition
    // installing the same epoch number stay distinguishable for the
    // oracle's consecutive-shared-view comparison.
    std::uint64_t digest = obs::kFnvOffsetBasis;
    for (const EndpointId member : g.view.members) digest = obs::fnv1a64(digest, member.value());
    metrics().trace(obs::TraceKind::kViewInstalled, g.view_installed_at, id_.value(),
                    group_id.value(), obs::pack_view_detail(g.view.epoch, digest));

    // The configuration switch point.  deliver_cut has already drained
    // every pre-cut message under the old config (old OrderMode, old
    // policies); from here on the group runs the new one.  The engine built
    // below for the new mode starts from clean state, which is exactly what
    // a kTotalSymmetric <-> kTotalAsymmetric switch needs: sequencer
    // assignments never straddle the cut.
    if (msg.config_epoch != g.config_epoch) {
        g.config = msg.config;
        g.config_epoch = msg.config_epoch;
        directory_->update_group_config(group_id, g.config);
        if (was_member) {
            metrics().add(obs::metric::kGcsReconfigs);
            if (g.pending_config.has_value() &&
                g.pending_config->nonce == msg.applied_nonce) {
                metrics().observe(obs::metric::kGcsReconfigStallUs,
                                  g.view_installed_at - g.pending_config->delivered_at);
            }
            metrics().trace(obs::TraceKind::kConfigSwitched, g.view_installed_at, id_.value(),
                            group_id.value(),
                            obs::pack_config_detail(g.config_epoch, g.view.epoch));
        }
    }
    // Pending proposal honoured by this install?  Then it is done; anything
    // else (a proposal delivered in the cut just now, or a newer last-wins
    // value) stays armed and triggers a follow-up round from handle_install.
    if (g.pending_config.has_value() && g.pending_config->nonce == msg.applied_nonce) {
        g.pending_config.reset();
    }

    g.state = Group::State::kNormal;
    g.leading = false;
    g.next_send_seq = 0;
    g.ever_sent = false;
    // The new engine has heard nothing from us: a timestamp we sent in the
    // old view must not convince the progress-null rule that we already
    // spoke past the new view's head.
    g.last_sent_ts = 0;
    // Nothing sent in the old view counts as carried any more: joiners never
    // saw it, and resubmissions are fresh sends.
    g.knowledge_sent_at = 0;
    g.inflight_sends = 0;  // the old epoch's in-flight sends died with it
    g.inbound.clear();
    g.own_delivered_count = 0;
    g.release_queue.clear();
    g.joining_barriers.clear();  // each sender's first send here carries all
    g.unstable.clear();
    g.stability_reports.clear();
    g.vc_flushed.clear();
    g.vc_cut.clear();
    g.vc_orders.clear();
    g.vc_members.clear();
    g.vc_expected_flush.clear();
    g.engine = make_order_engine(g.config.order, g.view.members, id_);

    // Members this view removed *because we suspected them* are reported
    // dead to the directory, so rebinding clients stop selecting them as
    // request managers (voluntary leavers are not suspects and keep their
    // registrations).  Advisory, like the contact hint: a falsely
    // suspected member re-registers on its own next view install.
    for (const EndpointId m : old_members) {
        if (!g.view.contains(m) && g.suspects.contains(m)) directory_->evict_endpoint(m);
    }

    // Detector scoreboard: a suspect this view removed that was never heard
    // from after the suspicion was a real failure (a later message would
    // have refuted the entry in handle_data).
    for (const EndpointId m : old_members) {
        if (!g.view.contains(m) && g.suspected_at.contains(m)) {
            metrics().add(obs::metric::kGcsSuspicionTrue);
        }
    }
    std::erase_if(g.suspected_at,
                  [&](const auto& entry) { return !g.view.contains(entry.first); });

    // Suspicions and requests that the new view resolved are cleared.
    std::erase_if(g.suspects, [&](EndpointId m) { return !g.view.contains(m); });
    std::erase_if(g.pending_joiners, [&](EndpointId m) { return g.view.contains(m); });
    std::erase_if(g.pending_leavers, [&](EndpointId m) { return !g.view.contains(m); });

    directory_->update_contact_hint(group_id, g.view.members);

    // A join we were waiting on may have just completed.
    const auto join_it = pending_joins_.find(g.name);
    if (join_it != pending_joins_.end()) {
        orb_->scheduler().cancel(join_it->second);
        pending_joins_.erase(join_it);
    }

    if (view_handler_) {
        ViewChangeEvent event;
        event.view = g.view;
        for (const EndpointId m : g.view.members) {
            if (std::find(old_members.begin(), old_members.end(), m) == old_members.end()) {
                event.joined.push_back(m);
            }
        }
        for (const EndpointId m : old_members) {
            if (!g.view.contains(m)) event.departed.push_back(m);
        }
        view_handler_(event);
    }
}

void GroupCommEndpoint::resubmit_undelivered(Group& g, Seqno own_delivered) {
    // Our messages that made it into nobody's delivery (they were not in
    // the cut) would otherwise vanish; atomicity lets us resubmit them in
    // the new view (the paper's client-retry discussion, §4.1).  They queue
    // behind whatever waits in the outbox already.
    for (const auto& [ref, kept] : g.unstable) {
        if (ref.sender != id_ || ref.seq < own_delivered) continue;
        DataMsg data = decode_data_frame(kept.frame);
        if (!orders_like_app(data.kind)) continue;
        // A coalesced message resubmits every payload it carried, in their
        // original submission order.  Spans stay attached: a resubmitted
        // payload still belongs to its original invocation.  An undelivered
        // config proposal resubmits too (kind preserved) — reconfiguration
        // requests are never silently lost to a view change.
        g.outbox.push_back(PendingSend{std::move(data.payload), data.span, data.kind});
        for (std::size_t i = 0; i < data.batch.size(); ++i) {
            g.outbox.push_back(PendingSend{
                std::move(data.batch[i]),
                i < data.batch_spans.size() ? data.batch_spans[i] : obs::SpanContext{}});
        }
    }
}

void GroupCommEndpoint::handle_install(const InstallMsg& msg) {
    Group& g = ensure_skeleton(msg.group);
    if (g.installed && msg.view.epoch <= g.view.epoch) return;  // duplicate/stale

    if (g.installed && g.view.contains(id_)) {
        deliver_cut(g, msg);
        resubmit_undelivered(g, g.own_delivered_count);
    }
    // Taken before the view handler runs: a send it makes goes out in the
    // new view on its own, not behind this backlog.
    std::deque<PendingSend> backlog = std::exchange(g.outbox, {});

    install_view(g, msg);

    Group* gp = find_group(msg.group);
    if (gp == nullptr) return;  // we were removed

    // Send what queued up during the change (and any resubmissions),
    // through the flow-control gate so a large backlog coalesces instead
    // of flooding the new view.
    for (PendingSend& pending : backlog) submit_send(*gp, std::move(pending));

    maybe_start_view_change(*gp);
    // A follow-up round may have run to completion synchronously and erased
    // the group; re-resolve before touching it again.
    gp = find_group(msg.group);
    if (gp != nullptr) {
        maybe_adapt_order(*gp);
        kick_liveness(*gp);
    }
    try_release_all();
}

// -- adaptive ordering policy ------------------------------------------------------

std::optional<OrderMode> GroupCommEndpoint::adaptive_order_target(const Group& g) const {
    if (g.config.adaptive_asym_threshold == 0 || g.config.order == OrderMode::kCausal) {
        return std::nullopt;
    }
    if (!g.installed || g.view.leader() != id_ || g.pending_config.has_value()) {
        return std::nullopt;
    }
    const OrderMode desired = g.view.members.size() >= g.config.adaptive_asym_threshold
                                  ? OrderMode::kTotalAsymmetric
                                  : OrderMode::kTotalSymmetric;
    if (desired == g.config.order) return std::nullopt;
    return desired;
}

void GroupCommEndpoint::maybe_adapt_order(Group& g) {
    if (!adaptive_order_target(g).has_value()) return;
    // Defer one event step: we are inside the install path, and reconfigure
    // sends through the data machinery the install is still settling.
    const GroupId id = g.id;
    orb_->scheduler().schedule_after(0, [this, id] { on_adapt_order(id); });
}

void GroupCommEndpoint::on_adapt_order(GroupId id) {
    Group* g = live_group(id);
    // Re-validate everything: membership, leadership or the config may all
    // have moved since the install that scheduled us.
    if (g == nullptr || g->state != Group::State::kNormal) return;
    const std::optional<OrderMode> target = adaptive_order_target(*g);
    if (!target.has_value()) return;
    GroupConfig next = g->config;
    next.order = *target;
    reconfigure(id, next);
}

void GroupCommEndpoint::on_vc_timeout(GroupId id) {
    Group* g = live_group(id);
    if (g == nullptr || g->state != Group::State::kViewChange) return;
    g->vc_timer = 0;

    if (g->leading) {
        // Members that never flushed are presumed gone; go again without them.
        for (const EndpointId member : g->vc_expected_flush) {
            if (!g->vc_flushed.contains(member)) note_suspect(*g, member, true);
        }
        begin_round(*g);
        return;
    }

    // The coordinator went quiet; the next-ranked survivor takes over.
    note_suspect(*g, g->vc_coordinator, true);
    if (!g->installed || !g->view.contains(id_)) {
        // Joiner waiting on a dead coordinator: rely on the join retry.
        return;
    }
    if (first_unsuspected(*g) == id_) {
        begin_round(*g);
    } else {
        const GroupId gid = g->id;
        g->vc_timer = orb_->scheduler().schedule_after(5 * g->config.view_change_timeout / 2,
                                                       [this, gid] { on_vc_timeout(gid); });
    }
}

}  // namespace newtop
