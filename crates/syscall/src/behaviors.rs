//! The 12 target behaviors of the paper's evaluation (Table 1, Appendix L).
//!
//! Real syscall traces of these behaviors are proprietary; this module generates
//! synthetic logs with the same statistical envelope (average node/edge counts, label
//! variety, small/medium/large grouping) and, crucially, the same *discriminative
//! structure*: each behavior embeds a fixed, ordered *signature* of syscall events — the
//! footprint TGMiner is supposed to discover — surrounded by noise events drawn from a
//! vocabulary shared with background activity.
//!
//! The behaviors differ in how confusable they are with background activity
//! ([`Confusability`]), which is what drives the accuracy differences between `NodeSet`,
//! `Ntemp`, and `TGMiner` in Table 2:
//!
//! * [`Confusability::Distinct`] — signature entities appear nowhere else; every method
//!   does well (bzip2/gzip/wget/ftp).
//! * [`Confusability::SharedLabels`] — background activity occasionally touches the same
//!   *entities*, but never with the signature's interaction structure; keyword queries
//!   (`NodeSet`) produce false positives, structural queries survive (gcc/g++/ftpd/
//!   apt-get-install).
//! * [`Confusability::SharedStructure`] — background activity occasionally produces the
//!   signature's exact interaction *structure* but in reversed temporal order; both
//!   `NodeSet` and `Ntemp` produce false positives, only temporal patterns survive
//!   (scp/ssh-login/sshd-login/apt-get-update).

use crate::entity::{Entity, EntityKind};
use crate::event::SyscallType;
use crate::log::SyscallLog;
use rand::rngs::StdRng;
use rand::Rng;

/// Size classes used to group behaviors in the efficiency experiments (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// Small traces (tens of edges).
    Small,
    /// Medium traces (around a hundred edges).
    Medium,
    /// Large traces (hundreds to thousands of edges).
    Large,
}

impl SizeClass {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        }
    }
}

/// How confusable a behavior's footprint is with background activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confusability {
    /// Signature entities are unique to the behavior.
    Distinct,
    /// Background decoys reuse the signature's entities with a different structure.
    SharedLabels,
    /// Background decoys reuse the signature's structure with reversed temporal order.
    SharedStructure,
}

/// The 12 target behaviors of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Behavior {
    /// bzip2-based decompression.
    Bzip2Decompress,
    /// gzip-based decompression.
    GzipDecompress,
    /// wget-based file download.
    WgetDownload,
    /// ftp-based file download.
    FtpDownload,
    /// scp-based file download.
    ScpDownload,
    /// gcc-based source compilation.
    GccCompile,
    /// g++-based source compilation.
    GppCompile,
    /// ftpd server-side login.
    FtpdLogin,
    /// ssh client-side login.
    SshLogin,
    /// sshd server-side login.
    SshdLogin,
    /// apt-get update.
    AptGetUpdate,
    /// apt-get install.
    AptGetInstall,
}

/// Static description of a behavior: its name, size class and target statistics
/// (the "Avg. #nodes / Avg. #edges / Total #labels" columns of Table 1).
#[derive(Debug, Clone, Copy)]
pub struct BehaviorProfile {
    /// Behavior name as printed in the paper.
    pub name: &'static str,
    /// Size class used by Figure 13.
    pub size_class: SizeClass,
    /// Average number of nodes per trace in the paper's training data.
    pub target_nodes: usize,
    /// Average number of edges per trace.
    pub target_edges: usize,
    /// Total number of distinct labels across the behavior's training data.
    pub target_labels: usize,
    /// How confusable the behavior is with background activity.
    pub confusability: Confusability,
}

impl Behavior {
    /// All 12 behaviors in Table 1 order.
    pub fn all() -> [Behavior; 12] {
        [
            Behavior::Bzip2Decompress,
            Behavior::GzipDecompress,
            Behavior::WgetDownload,
            Behavior::FtpDownload,
            Behavior::ScpDownload,
            Behavior::GccCompile,
            Behavior::GppCompile,
            Behavior::FtpdLogin,
            Behavior::SshLogin,
            Behavior::SshdLogin,
            Behavior::AptGetUpdate,
            Behavior::AptGetInstall,
        ]
    }

    /// The static profile (Table 1 row) of this behavior.
    pub fn profile(self) -> BehaviorProfile {
        use Confusability::*;
        use SizeClass::*;
        match self {
            Behavior::Bzip2Decompress => BehaviorProfile {
                name: "bzip2-decompress",
                size_class: Small,
                target_nodes: 11,
                target_edges: 12,
                target_labels: 15,
                confusability: Distinct,
            },
            Behavior::GzipDecompress => BehaviorProfile {
                name: "gzip-decompress",
                size_class: Small,
                target_nodes: 10,
                target_edges: 12,
                target_labels: 7,
                confusability: Distinct,
            },
            Behavior::WgetDownload => BehaviorProfile {
                name: "wget-download",
                size_class: Small,
                target_nodes: 33,
                target_edges: 40,
                target_labels: 92,
                confusability: Distinct,
            },
            Behavior::FtpDownload => BehaviorProfile {
                name: "ftp-download",
                size_class: Small,
                target_nodes: 30,
                target_edges: 61,
                target_labels: 39,
                confusability: Distinct,
            },
            Behavior::ScpDownload => BehaviorProfile {
                name: "scp-download",
                size_class: Medium,
                target_nodes: 50,
                target_edges: 106,
                target_labels: 68,
                confusability: SharedStructure,
            },
            Behavior::GccCompile => BehaviorProfile {
                name: "gcc-compile",
                size_class: Medium,
                target_nodes: 65,
                target_edges: 122,
                target_labels: 94,
                confusability: SharedLabels,
            },
            Behavior::GppCompile => BehaviorProfile {
                name: "g++-compile",
                size_class: Medium,
                target_nodes: 67,
                target_edges: 117,
                target_labels: 100,
                confusability: SharedLabels,
            },
            Behavior::FtpdLogin => BehaviorProfile {
                name: "ftpd-login",
                size_class: Medium,
                target_nodes: 28,
                target_edges: 103,
                target_labels: 119,
                confusability: SharedLabels,
            },
            Behavior::SshLogin => BehaviorProfile {
                name: "ssh-login",
                size_class: Medium,
                target_nodes: 66,
                target_edges: 161,
                target_labels: 94,
                confusability: SharedStructure,
            },
            Behavior::SshdLogin => BehaviorProfile {
                name: "sshd-login",
                size_class: Large,
                target_nodes: 281,
                target_edges: 730,
                target_labels: 269,
                confusability: SharedStructure,
            },
            Behavior::AptGetUpdate => BehaviorProfile {
                name: "apt-get-update",
                size_class: Large,
                target_nodes: 209,
                target_edges: 994,
                target_labels: 203,
                confusability: SharedStructure,
            },
            Behavior::AptGetInstall => BehaviorProfile {
                name: "apt-get-install",
                size_class: Large,
                target_nodes: 1006,
                target_edges: 1879,
                target_labels: 272,
                confusability: SharedLabels,
            },
        }
    }

    /// Behavior name (Table 1 spelling).
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// Behaviors belonging to the given size class.
    pub fn by_size_class(class: SizeClass) -> Vec<Behavior> {
        Behavior::all()
            .into_iter()
            .filter(|b| b.profile().size_class == class)
            .collect()
    }

    /// The ordered signature events of this behavior: the discriminative temporal core
    /// that every instance contains and background activity never produces in this order.
    pub fn signature(self) -> Vec<(Entity, Entity, SyscallType)> {
        use SyscallType::*;
        let p = Entity::process;
        let f = Entity::file;
        let s = Entity::socket;
        match self {
            Behavior::Bzip2Decompress => vec![
                (p("bash"), p("bzip2"), Fork),
                (p("bzip2"), f("/usr/bin/bzip2"), Exec),
                (p("bzip2"), f("archive.bz2"), Open),
                (p("bzip2"), f("archive.bz2"), Read),
                (p("bzip2"), f("archive"), Write),
                (p("bzip2"), f("archive.bz2"), Unlink),
            ],
            Behavior::GzipDecompress => vec![
                (p("bash"), p("gzip"), Fork),
                (p("gzip"), f("/usr/bin/gzip"), Exec),
                (p("gzip"), f("archive.gz"), Open),
                (p("gzip"), f("archive.gz"), Read),
                (p("gzip"), f("archive"), Write),
                (p("gzip"), f("archive.gz"), Unlink),
            ],
            Behavior::WgetDownload => vec![
                (p("bash"), p("wget"), Fork),
                (p("wget"), f("/usr/bin/wget"), Exec),
                (p("wget"), f("/etc/resolv.conf"), Read),
                (p("wget"), s("remote-http:80"), Connect),
                (p("wget"), s("remote-http:80"), Send),
                (p("wget"), s("remote-http:80"), Recv),
                (p("wget"), f("index.html"), Write),
                (p("wget"), f(".wget-hsts"), Write),
            ],
            Behavior::FtpDownload => vec![
                (p("bash"), p("ftp"), Fork),
                (p("ftp"), f("/usr/bin/ftp"), Exec),
                (p("ftp"), s("remote-ftp:21"), Connect),
                (p("ftp"), s("remote-ftp:21"), Send),
                (p("ftp"), s("remote-ftp:20"), Connect),
                (p("ftp"), s("remote-ftp:20"), Recv),
                (p("ftp"), f("payload.dat"), Write),
                (p("ftp"), f(".netrc"), Read),
            ],
            Behavior::ScpDownload => vec![
                (p("bash"), p("scp"), Fork),
                (p("scp"), f("/usr/bin/scp"), Exec),
                (p("scp"), p("ssh-client"), Fork),
                (p("ssh-client"), f("~/.ssh/known_hosts"), Read),
                (p("ssh-client"), s("remote-ssh:22"), Connect),
                (p("ssh-client"), s("remote-ssh:22"), Send),
                (p("ssh-client"), s("remote-ssh:22"), Recv),
                (p("ssh-client"), p("scp"), Write),
                (p("scp"), f("copied.dat"), Write),
                (p("scp"), f("copied.dat"), Chmod),
            ],
            Behavior::GccCompile => vec![
                (p("bash"), p("gcc"), Fork),
                (p("gcc"), f("/usr/bin/gcc"), Exec),
                (p("gcc"), f("main.c"), Read),
                (p("gcc"), p("cc1"), Fork),
                (p("cc1"), f("main.c"), Read),
                (p("cc1"), f("/tmp/ccMAIN.s"), Write),
                (p("gcc"), p("as"), Fork),
                (p("as"), f("/tmp/ccMAIN.s"), Read),
                (p("as"), f("/tmp/ccMAIN.o"), Write),
                (p("gcc"), p("collect2"), Fork),
                (p("collect2"), f("/tmp/ccMAIN.o"), Read),
                (p("collect2"), f("a.out"), Write),
            ],
            Behavior::GppCompile => vec![
                (p("bash"), p("g++"), Fork),
                (p("g++"), f("/usr/bin/g++"), Exec),
                (p("g++"), f("main.cpp"), Read),
                (p("g++"), p("cc1plus"), Fork),
                (p("cc1plus"), f("main.cpp"), Read),
                (p("cc1plus"), f("/tmp/ccPLUS.s"), Write),
                (p("g++"), p("as"), Fork),
                (p("as"), f("/tmp/ccPLUS.s"), Read),
                (p("as"), f("/tmp/ccPLUS.o"), Write),
                (p("g++"), p("collect2"), Fork),
                (p("collect2"), f("/tmp/ccPLUS.o"), Read),
                (p("collect2"), f("a.out"), Write),
            ],
            Behavior::FtpdLogin => vec![
                (p("ftpd"), s("client-ftp"), Accept),
                (p("ftpd"), f("/etc/passwd"), Read),
                (p("ftpd"), f("/etc/ftpusers"), Read),
                (p("ftpd"), p("ftpd-session"), Fork),
                (p("ftpd-session"), f("/etc/pam.d/vsftpd"), Read),
                (p("ftpd-session"), s("client-ftp"), Send),
                (p("ftpd-session"), f("/var/log/vsftpd.log"), Write),
                (p("ftpd-session"), f("/home/user"), Open),
            ],
            Behavior::SshLogin => vec![
                (p("bash"), p("ssh"), Fork),
                (p("ssh"), f("/usr/bin/ssh"), Exec),
                (p("ssh"), f("~/.ssh/config"), Read),
                (p("ssh"), f("~/.ssh/id_rsa"), Read),
                (p("ssh"), s("server-ssh:22"), Connect),
                (p("ssh"), s("server-ssh:22"), Send),
                (p("ssh"), s("server-ssh:22"), Recv),
                (p("ssh"), f("~/.ssh/known_hosts"), Write),
                (p("ssh"), p("bash"), Write),
            ],
            Behavior::SshdLogin => vec![
                (p("sshd"), s("client-ssh"), Accept),
                (p("sshd"), p("sshd-net"), Fork),
                (p("sshd-net"), f("/etc/ssh/sshd_config"), Read),
                (p("sshd-net"), f("/etc/pam.d/sshd"), Read),
                (p("sshd-net"), f("/etc/shadow"), Read),
                (p("sshd-net"), p("sshd-user"), Fork),
                (p("sshd-user"), f("/var/log/auth.log"), Write),
                (p("sshd-user"), f("/var/run/utmp"), Write),
                (p("sshd-user"), p("user-shell"), Fork),
                (p("user-shell"), f("/home/user/.bashrc"), Read),
                (p("user-shell"), f("/home/user/.bash_history"), Write),
            ],
            Behavior::AptGetUpdate => vec![
                (p("bash"), p("apt-get"), Fork),
                (p("apt-get"), f("/usr/bin/apt-get"), Exec),
                (p("apt-get"), f("/etc/apt/sources.list"), Read),
                (p("apt-get"), p("http-method"), Fork),
                (p("http-method"), s("archive.ubuntu.com:80"), Connect),
                (p("http-method"), s("archive.ubuntu.com:80"), Recv),
                (p("http-method"), f("/var/lib/apt/lists/partial"), Write),
                (p("apt-get"), f("/var/lib/apt/lists/Release"), Write),
                (p("apt-get"), f("/var/cache/apt/pkgcache.bin"), Write),
            ],
            Behavior::AptGetInstall => vec![
                (p("bash"), p("apt-get"), Fork),
                (p("apt-get"), f("/usr/bin/apt-get"), Exec),
                (p("apt-get"), f("/var/lib/dpkg/status"), Read),
                (p("apt-get"), p("http-method"), Fork),
                (p("http-method"), s("archive.ubuntu.com:80"), Connect),
                (
                    p("http-method"),
                    f("/var/cache/apt/archives/pkg.deb"),
                    Write,
                ),
                (p("apt-get"), p("dpkg"), Fork),
                (p("dpkg"), f("/var/cache/apt/archives/pkg.deb"), Read),
                (p("dpkg"), f("/usr/bin/newtool"), Write),
                (p("dpkg"), f("/var/lib/dpkg/status"), Write),
                (p("dpkg"), p("postinst"), Fork),
                (p("postinst"), f("/etc/newtool.conf"), Write),
            ],
        }
    }

    /// The main process driving the behavior, used as the subject of noise events so
    /// that instance graphs stay connected.
    pub(crate) fn main_process(self) -> Entity {
        let name = match self {
            Behavior::Bzip2Decompress => "bzip2",
            Behavior::GzipDecompress => "gzip",
            Behavior::WgetDownload => "wget",
            Behavior::FtpDownload => "ftp",
            Behavior::ScpDownload => "scp",
            Behavior::GccCompile => "gcc",
            Behavior::GppCompile => "g++",
            Behavior::FtpdLogin => "ftpd-session",
            Behavior::SshLogin => "ssh",
            Behavior::SshdLogin => "sshd-user",
            Behavior::AptGetUpdate => "apt-get",
            Behavior::AptGetInstall => "dpkg",
        };
        Entity::process(name)
    }

    /// The heads of the behavior's own noise files, `/opt/{name}/data-{i}` and
    /// `/tmp/{name}-{i}.tmp`, as static text: a noise file is an [`Entity::indexed`],
    /// built without formatting.
    pub(crate) fn noise_file_heads(self) -> (&'static str, &'static str) {
        macro_rules! heads {
            ($name:literal) => {
                (
                    concat!("/opt/", $name, "/data-"),
                    concat!("/tmp/", $name, "-"),
                )
            };
        }
        match self {
            Behavior::Bzip2Decompress => heads!("bzip2-decompress"),
            Behavior::GzipDecompress => heads!("gzip-decompress"),
            Behavior::WgetDownload => heads!("wget-download"),
            Behavior::FtpDownload => heads!("ftp-download"),
            Behavior::ScpDownload => heads!("scp-download"),
            Behavior::GccCompile => heads!("gcc-compile"),
            Behavior::GppCompile => heads!("g++-compile"),
            Behavior::FtpdLogin => heads!("ftpd-login"),
            Behavior::SshLogin => heads!("ssh-login"),
            Behavior::SshdLogin => heads!("sshd-login"),
            Behavior::AptGetUpdate => heads!("apt-get-update"),
            Behavior::AptGetInstall => heads!("apt-get-install"),
        }
    }

    /// Generates one synthetic instance of this behavior as a syscall log.
    ///
    /// `scale` shrinks (or grows) the noise budget relative to the paper's trace sizes;
    /// the signature is always emitted in full and in order. Generation is deterministic
    /// for a given RNG state.
    pub fn generate_instance(self, rng: &mut StdRng, scale: f64) -> SyscallLog {
        let profile = self.profile();
        let signature = self.signature();
        let target_edges =
            ((profile.target_edges as f64 * scale).round() as usize).max(signature.len());
        let noise_budget = target_edges - signature.len();
        let unique_label_pool =
            ((profile.target_labels as f64 * scale).round() as usize).clamp(2, 400);

        let mut log = SyscallLog::new();
        let (main, heads) = (self.main_process(), self.noise_file_heads());
        // Interleave: some noise, then signature events with noise in between, then noise.
        let gaps = signature.len() + 1;
        let mut remaining_noise = noise_budget;
        for (i, (subject, object, syscall)) in signature.into_iter().enumerate() {
            let gap_budget = remaining_noise / (gaps - i);
            for _ in 0..gap_budget {
                let (ns, no, nc) = noise_event(rng, main, heads, unique_label_pool);
                log.record_next(ns, no, nc);
            }
            remaining_noise -= gap_budget;
            log.record_next(subject, object, syscall);
        }
        for _ in 0..remaining_noise {
            let (ns, no, nc) = noise_event(rng, main, heads, unique_label_pool);
            log.record_next(ns, no, nc);
        }
        log
    }

    /// Generates a background *decoy fragment* for this behavior, or `None` when the
    /// behavior is not confusable with background activity.
    ///
    /// * `SharedLabels` decoys touch the signature's entities but with a different
    ///   interaction structure (every edge reversed through a scratch process), so only
    ///   the label multiset is shared.
    /// * `SharedStructure` decoys replay the signature's exact events in **reversed**
    ///   temporal order: the collapsed (non-temporal) structure is identical, but no
    ///   ordered sub-pattern of two or more signature events survives.
    pub fn decoy_fragment(self, rng: &mut StdRng) -> Option<Vec<(Entity, Entity, SyscallType)>> {
        let profile = self.profile();
        let signature = self.signature();
        match profile.confusability {
            Confusability::Distinct => None,
            Confusability::SharedLabels => {
                let scavenger =
                    Entity::indexed(EntityKind::Process, "cron-job-", rng.gen_range(0..5), "");
                let mut events = Vec::new();
                for (subject, object, _) in signature {
                    // Touch both entities, but never reproduce the original edge.
                    events.push((scavenger, object, SyscallType::Open));
                    events.push((scavenger, subject, SyscallType::Read));
                }
                Some(events)
            }
            Confusability::SharedStructure => {
                let mut events = signature;
                events.reverse();
                Some(events)
            }
        }
    }
}

/// Shared noise vocabulary: libraries, caches and /proc entries every process touches.
/// These labels appear in every behavior *and* in background activity, so they carry no
/// discriminative signal (and are natural blacklist entries for the interest ranking).
pub const SHARED_NOISE_FILES: [&str; 12] = [
    "/lib/x86_64/libc.so.6",
    "/lib/x86_64/libpthread.so.0",
    "/lib/x86_64/libdl.so.2",
    "/etc/ld.so.cache",
    "/usr/lib/locale/locale-archive",
    "/proc/self/stat",
    "/proc/meminfo",
    "/proc/cpuinfo",
    "/etc/nsswitch.conf",
    "/etc/localtime",
    "/dev/null",
    "/dev/urandom",
];

/// Draws one noise event for an instance driven by `main`, whose own noise files have
/// the heads `(data, tmp)` ([`Behavior::noise_file_heads`]).
fn noise_event(
    rng: &mut StdRng,
    main: Entity,
    (data, tmp): (&'static str, &'static str),
    unique_label_pool: usize,
) -> (Entity, Entity, SyscallType) {
    let roll: f64 = rng.gen();
    if roll < 0.55 {
        // Shared library / proc reads: labels common to everything.
        let file = SHARED_NOISE_FILES[rng.gen_range(0..SHARED_NOISE_FILES.len())];
        (main, Entity::file(file), SyscallType::Read)
    } else if roll < 0.85 {
        // Behavior-specific auxiliary files: give each behavior its own label variety.
        let idx = rng.gen_range(0..unique_label_pool) as u32;
        let file = Entity::indexed(EntityKind::File, data, idx, "");
        let syscall = if rng.gen_bool(0.5) {
            SyscallType::Read
        } else {
            SyscallType::Write
        };
        (main, file, syscall)
    } else if roll < 0.95 {
        // Scratch files in /tmp.
        let idx = rng.gen_range(0..unique_label_pool.max(4)) as u32;
        let file = Entity::indexed(EntityKind::File, tmp, idx, ".tmp");
        (main, file, SyscallType::Write)
    } else {
        // A helper process peeking at the main process (e.g. a monitoring agent).
        let helper = Entity::indexed(EntityKind::Process, "agent-", rng.gen_range(0..3), "");
        (helper, main, SyscallType::Read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn all_lists_twelve_behaviors_with_distinct_names() {
        let all = Behavior::all();
        assert_eq!(all.len(), 12);
        let names: std::collections::HashSet<_> = all.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn noise_file_heads_spell_the_behavior_name() {
        for behavior in Behavior::all() {
            let name = behavior.name();
            let (data, tmp) = behavior.noise_file_heads();
            assert_eq!(data, format!("/opt/{name}/data-"));
            assert_eq!(tmp, format!("/tmp/{name}-"));
        }
    }

    #[test]
    fn size_classes_match_table1_grouping() {
        assert_eq!(Behavior::by_size_class(SizeClass::Small).len(), 4);
        assert_eq!(Behavior::by_size_class(SizeClass::Medium).len(), 5);
        assert_eq!(Behavior::by_size_class(SizeClass::Large).len(), 3);
        assert_eq!(Behavior::SshdLogin.profile().size_class, SizeClass::Large);
    }

    #[test]
    fn signatures_are_nonempty_and_have_no_duplicate_events() {
        for behavior in Behavior::all() {
            let sig = behavior.signature();
            assert!(sig.len() >= 6, "{} signature too short", behavior.name());
            let mut seen = std::collections::HashSet::new();
            for event in &sig {
                let key = (
                    event.0.label_string(),
                    event.1.label_string(),
                    format!("{:?}", event.2),
                );
                assert!(
                    seen.insert(key),
                    "{} has a duplicate signature event",
                    behavior.name()
                );
            }
        }
    }

    #[test]
    fn generated_instances_contain_the_signature_in_order() {
        let mut rng = StdRng::seed_from_u64(7);
        for behavior in Behavior::all() {
            let log = behavior.generate_instance(&mut rng, 0.3);
            let signature = behavior.signature();
            let mut cursor = 0usize;
            for event in log.events() {
                if cursor < signature.len() {
                    let (s, o, c) = &signature[cursor];
                    if &event.subject == s && &event.object == o && event.syscall == *c {
                        cursor += 1;
                    }
                }
            }
            assert_eq!(
                cursor,
                signature.len(),
                "{} lost its signature",
                behavior.name()
            );
        }
    }

    #[test]
    fn instance_size_scales_with_the_scale_factor() {
        let mut rng = StdRng::seed_from_u64(11);
        let small = Behavior::SshdLogin.generate_instance(&mut rng, 0.1);
        let mut rng = StdRng::seed_from_u64(11);
        let large = Behavior::SshdLogin.generate_instance(&mut rng, 0.5);
        assert!(large.len() > small.len());
        let expected = (Behavior::SshdLogin.profile().target_edges as f64 * 0.5).round() as usize;
        assert_eq!(large.len(), expected);
    }

    #[test]
    fn distinct_behaviors_have_no_decoys() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(Behavior::Bzip2Decompress.decoy_fragment(&mut rng).is_none());
        assert!(Behavior::WgetDownload.decoy_fragment(&mut rng).is_none());
    }

    #[test]
    fn shared_structure_decoys_reverse_the_signature() {
        let mut rng = StdRng::seed_from_u64(3);
        let decoy = Behavior::SshdLogin.decoy_fragment(&mut rng).unwrap();
        let mut signature = Behavior::SshdLogin.signature();
        signature.reverse();
        assert_eq!(decoy, signature);
    }

    #[test]
    fn shared_label_decoys_touch_signature_entities_without_signature_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let decoy = Behavior::GccCompile.decoy_fragment(&mut rng).unwrap();
        let signature = Behavior::GccCompile.signature();
        let signature_edges: std::collections::HashSet<(String, String)> = signature
            .iter()
            .map(|(s, o, _)| (s.label_string(), o.label_string()))
            .collect();
        for (s, o, _) in &decoy {
            assert!(!signature_edges.contains(&(s.label_string(), o.label_string())));
        }
        // Every signature entity is touched by the decoy.
        let decoy_entities: std::collections::HashSet<String> = decoy
            .iter()
            .flat_map(|(s, o, _)| [s.label_string(), o.label_string()])
            .collect();
        for (s, o, _) in &signature {
            assert!(decoy_entities.contains(&s.label_string()));
            assert!(decoy_entities.contains(&o.label_string()));
        }
    }
}
