//! ARN: congestion notifications between switch levels
//! (`RoutingPolicy::ArnUp`). Every piece of state here is empty under the
//! other policies, which therefore pay nothing.

use simcore::{EventQueue, Picos};

use crate::arn::{ARN_COLD_BYTES, ARN_HOT_BYTES};
use crate::config::SchemeKind;
use crate::packet::RevPayload;

use super::{Event, LinkUp, Network};

impl Network {
    /// An ARN notification arrived at the upstream end of `link`: the
    /// switch one level up (reached through this link) gained (`hot`) or
    /// lost a congested root. The table entry of the up-port the link
    /// hangs off absorbs it; `select_up_port` reads the table on the next
    /// rebindable head-of-line packet — no rerouting event is needed.
    pub(super) fn on_arn_notification(&mut self, now: Picos, link: usize, hot: bool) {
        let LinkUp::Switch { sw, port } = self.links[link].up else {
            unreachable!("ARN notifications only travel switch-to-switch links");
        };
        let slot = port - self.switches[sw].up_ports.start;
        if hot {
            self.arn_tables[sw].note_hot(slot, now);
        } else {
            self.arn_tables[sw].note_cold(slot);
        }
    }

    /// Broadcasts one ARN notification from `sw` to every child switch
    /// (the reverse channel of each child link, consuming modeled
    /// bandwidth like any other control message). No-op unless the run
    /// is under `RoutingPolicy::ArnUp`; leaf switches have no child
    /// switches and broadcast to nobody.
    pub(crate) fn arn_broadcast(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        hot: bool,
    ) {
        if self.arn_child_links.is_empty() {
            return;
        }
        for i in 0..self.arn_child_links[sw].len() {
            let link = self.arn_child_links[sw][i];
            let payload = if hot {
                RevPayload::ArnHot
            } else {
                RevPayload::ArnCold
            };
            self.send_rev_ctrl(now, q, link, payload);
            if hot {
                self.counters.arn_hot_notifications += 1;
            } else {
                self.counters.arn_cold_notifications += 1;
            }
        }
    }

    /// Non-RECN ARN trigger (the ARN paper's): output-port occupancy
    /// crossing [`ARN_HOT_BYTES`] upward broadcasts `ArnHot`, draining to
    /// [`ARN_COLD_BYTES`] broadcasts the matching `ArnCold`. Called after
    /// every output enqueue and dequeue; the hysteresis gap keeps a queue
    /// hovering at the threshold from spraying notification pairs. Under
    /// RECN the congested-root CAM itself drives notifications instead
    /// (see `note_root_change`), so this is a no-op there.
    pub(crate) fn arn_occupancy_check(
        &mut self,
        now: Picos,
        q: &mut EventQueue<Event>,
        sw: usize,
        port: usize,
    ) {
        if self.arn_out_hot.is_empty() || matches!(self.cfg.scheme, SchemeKind::Recn(_)) {
            return;
        }
        let used = self.switches[sw].outputs[port].used();
        let idx = self.port_base[sw] + port;
        if !self.arn_out_hot[idx] && used >= ARN_HOT_BYTES {
            self.arn_out_hot[idx] = true;
            self.arn_broadcast(now, q, sw, true);
        } else if self.arn_out_hot[idx] && used <= ARN_COLD_BYTES {
            self.arn_out_hot[idx] = false;
            self.arn_broadcast(now, q, sw, false);
        }
    }

    /// Sum over every switch of the live (unexpired) notification counts —
    /// nonzero while any ARN table would still bias an up-port choice.
    /// Always zero outside `RoutingPolicy::ArnUp`.
    pub fn arn_live_total(&self, now: Picos) -> u64 {
        self.arn_tables.iter().map(|t| t.live_total(now)).sum()
    }
}
