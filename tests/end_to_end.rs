//! Workspace-level integration tests: cross-crate stories that put the
//! defender, the adversary, and the substrate in one simulation.

use gfwsim::experiments::runs::{build_ss_world, shadowsocks_run, SsRunConfig};
use gfwsim::gfw::{Gfw, GfwConfig};
use gfwsim::shadowsocks::Profile;
use gfwsim::sscrypto::method::Method;
use gfwsim::trafficgen::{MixSpec, TrafficMix};
use netsim::conn::TcpTuning;
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};

fn drive(world: &mut gfwsim::experiments::runs::SsWorld, n: usize, spacing: Duration) {
    for i in 0..n {
        world.sim.connect_at(
            SimTime::ZERO + Duration::from_nanos(spacing.as_nanos() * i as u64),
            world.driver,
            world.client_ip,
            (world.server_ip, 8388),
            TcpTuning::default(),
        );
    }
}

#[test]
fn brdgrd_protects_a_server_end_to_end() {
    // Two identical servers and workloads; one runs brdgrd from the
    // start (the paper's strongest configuration, §7.1).
    let cfg = SsRunConfig {
        connections: 600,
        conn_interval: Duration::from_secs(20),
        fleet_pool: 500,
        nr_min_gap: Duration::from_mins(4),
        seed: 21,
        ..Default::default()
    };
    let unprotected = shadowsocks_run(&cfg).probes.len();

    let mut world = build_ss_world(&cfg);
    gfwsim::defense::Brdgrd::default().enable(&mut world.sim, world.server_ip);
    drive(&mut world, cfg.connections, cfg.conn_interval);
    world.sim.run();
    let protected = world.handle.state.borrow().probes().len();

    assert!(
        (protected as f64) < 0.2 * unprotected as f64,
        "brdgrd: {protected} probes vs {unprotected} unprotected"
    );
    assert!(unprotected > 20, "control server must be heavily probed");
}

#[test]
fn hardened_server_survives_sensitive_period() {
    // Same workload, sensitivity 1.0: the vulnerable Outline v1.0.7 is
    // blocked; the hardened v1.1.0 (replay filter) never produces a
    // high-confidence verdict, so it survives.
    let base = SsRunConfig {
        method: Method::ChaCha20IetfPoly1305,
        connections: 800,
        conn_interval: Duration::from_secs(20),
        sensitivity: 1.0,
        fleet_pool: 600,
        nr_min_gap: Duration::from_mins(4),
        seed: 22,
        ..Default::default()
    };
    let vulnerable = shadowsocks_run(&SsRunConfig {
        profile: Profile::OUTLINE_1_0_7,
        ..base.clone()
    });
    assert!(
        !vulnerable.block_rules.is_empty(),
        "filterless server must be blocked"
    );

    let fixed = shadowsocks_run(&SsRunConfig {
        profile: Profile::OUTLINE_1_1_0,
        ..base
    });
    assert!(
        fixed.block_rules.is_empty(),
        "v1.1.0 (replay defense) must survive; got {:?}",
        fixed.block_rules
    );
    assert!(
        !fixed.probes.is_empty(),
        "it is still probed — just not confirmable (§11: 'intensively \
         probed but not blocked')"
    );
}

#[test]
fn bidirectional_triggering_server_inside_china() {
    // §4.2: a Shadowsocks server *inside* China contacted from outside
    // receives probes too — the GFW does not care about directionality.
    let cfg = SsRunConfig {
        connections: 500,
        conn_interval: Duration::from_secs(20),
        fleet_pool: 500,
        nr_min_gap: Duration::from_mins(4),
        seed: 23,
        ..Default::default()
    };
    // Build a world, then add an inverted pair: server in China,
    // client outside.
    let mut world = build_ss_world(&cfg);
    let cn_server = world
        .sim
        .add_host(netsim::host::HostConfig::china("ss-server-cn"));
    let out_client = world
        .sim
        .add_host(netsim::host::HostConfig::outside("client-out"));
    let ss_config = gfwsim::shadowsocks::ServerConfig::new(
        Method::Aes256Cfb,
        "run-password",
        Profile::LIBEV_OLD,
    );
    let app = world
        .sim
        .add_app(Box::new(gfwsim::shadowsocks::apps::SsServerApp::new(
            ss_config, cn_server, 99,
        )));
    world.sim.listen((cn_server, 8388), app);
    for i in 0..cfg.connections {
        world.sim.connect_at(
            SimTime::ZERO + Duration::from_nanos(cfg.conn_interval.as_nanos() * i as u64),
            world.driver,
            out_client,
            (cn_server, 8388),
            TcpTuning::default(),
        );
    }
    world.sim.run();
    let st = world.handle.state.borrow();
    let to_cn_server = st
        .probes()
        .iter()
        .filter(|p| p.server.0 == cn_server)
        .count();
    assert!(
        to_cn_server > 5,
        "inside-China server got {to_cn_server} probes"
    );
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = |seed: u64| {
        let res = shadowsocks_run(&SsRunConfig {
            connections: 300,
            conn_interval: Duration::from_secs(20),
            fleet_pool: 300,
            nr_min_gap: Duration::from_mins(4),
            seed,
            ..Default::default()
        });
        res.probes
            .iter()
            .map(|p| {
                (
                    p.kind,
                    p.sent_at,
                    p.payload_len,
                    p.src,
                    p.src_port,
                    p.reaction,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(31), run(31), "same seed, same probe log");
    assert_ne!(run(31), run(32), "different seed, different log");
}

#[test]
fn probe_reactions_match_profile_on_the_wire() {
    // Table 5 through the full network stack: libev-old answers every
    // identical replay with RST; Outline 1.0.7 proxies them.
    use gfwsim::gfw::probe::{ProbeKind, Reaction};
    let base = SsRunConfig {
        connections: 500,
        conn_interval: Duration::from_secs(20),
        fleet_pool: 400,
        nr_min_gap: Duration::from_mins(4),
        seed: 24,
        ..Default::default()
    };
    let libev = shadowsocks_run(&SsRunConfig {
        profile: Profile::LIBEV_OLD,
        method: Method::Aes256Cfb,
        ..base.clone()
    });
    let r1: Vec<_> = libev
        .probes
        .iter()
        .filter(|p| p.kind == ProbeKind::R1 && p.reaction.is_some())
        .collect();
    assert!(!r1.is_empty());
    assert!(r1.iter().all(|p| p.reaction == Some(Reaction::Rst)));

    let outline = shadowsocks_run(&SsRunConfig {
        profile: Profile::OUTLINE_1_0_7,
        method: Method::ChaCha20IetfPoly1305,
        ..base
    });
    assert!(outline
        .probes
        .iter()
        .any(|p| p.kind == ProbeKind::R1 && p.reaction == Some(Reaction::Data)));
}

#[test]
fn probe_order_wakeups_stay_within_the_probe_count() {
    // A trigger-heavy mix: 2,000 background flows with Shadowsocks at
    // 1:10, GFW observe-only. Every stored payload queues several probe
    // orders and every resolved probe re-checks the queue; the
    // controller must still wake at most once per due time, and every
    // wake-up launches at least one probe.
    let mut sim = Simulator::new(SimConfig::default(), 7);
    let mut config = GfwConfig::default();
    config.fleet.pool_size = 3_000;
    config.blocking.sensitivity = 0.0;
    let gfw = Gfw::install(&mut sim, config, 7 ^ 0x6F3);
    let spec = MixSpec {
        background_flows: 2_000,
        base_rate: 10,
        seed: 7 ^ 0x5EED,
        ..MixSpec::default()
    };
    TrafficMix::install(&mut sim, &spec);
    sim.run();

    let st = gfw.state.borrow();
    let probes = st.probes().len();
    assert!(probes > 0, "the mix must trigger probing");
    assert!(
        st.order_wakeups() <= probes as u64,
        "{} order wake-ups for {probes} probes",
        st.order_wakeups()
    );
    assert_eq!(st.scheduler.pending(), 0, "every order fired");
}
