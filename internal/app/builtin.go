package app

import "fmt"

// The four benchmark applications from the paper. Service indices follow the
// MS1..MSn numbering of Figures 15 and 16 where the paper uses it.

// OnlineBoutique returns the six controlled microservices of Google's Online
// Boutique demo (paper Fig 4, Fig 15: MS1..MS6) with the three-API workload
// mix the paper's Locust generator uses ("workloads composed of three multi
// APIs", §5).
//
// The cart-page chain of Fig 4 is Frontend → Currency → Cart →
// Recommendation → Product → Shipping (sequential calls issued by the
// frontend).
func OnlineBoutique() *App {
	services := []Service{
		{Name: "frontend", WorkMS: 3.2, CV: 0.45, BaseMS: 1.5},       // MS1
		{Name: "cart", WorkMS: 2.5, CV: 0.60, BaseMS: 1.5},           // MS2
		{Name: "currency", WorkMS: 0.9, CV: 0.30, BaseMS: 0.8},       // MS3
		{Name: "productcatalog", WorkMS: 1.6, CV: 0.40, BaseMS: 1.0}, // MS4
		{Name: "recommendation", WorkMS: 3.6, CV: 0.85, BaseMS: 1.5}, // MS5
		{Name: "shipping", WorkMS: 2.8, CV: 0.70, BaseMS: 1.2},       // MS6
	}
	apis := []API{
		{
			Name: "cart", Mix: 0.4,
			Root: seq("frontend",
				&Call{Service: "currency", Count: 2},
				leaf("cart"),
				seq("recommendation", leaf("productcatalog")),
				leaf("productcatalog"),
				leaf("shipping"),
			),
		},
		{
			Name: "product", Mix: 0.4,
			Root: seq("frontend",
				leaf("productcatalog"),
				leaf("currency"),
				seq("recommendation", leaf("productcatalog")),
			),
		},
		{
			Name: "home", Mix: 0.2,
			Root: seq("frontend",
				leaf("currency"),
				leaf("productcatalog"),
			),
		},
	}
	return New("online-boutique", services, apis)
}

// SocialNetwork returns the ten controlled microservices of DeathStarBench's
// Social Network (paper Fig 10, Fig 16: MS1..MS10) with the single
// post-compose API the paper's Vegeta generator drives.
//
// Per Fig 10: NGINX fans out to unique-id, media, user and text in parallel;
// text resolves url and user-mention in parallel; the results feed
// compose-post, which writes to post-storage and user-timeline in parallel.
func SocialNetwork() *App {
	services := []Service{
		{Name: "nginx", WorkMS: 2.0, CV: 0.40, BaseMS: 0.8},         // MS1
		{Name: "unique-id", WorkMS: 0.6, CV: 0.30, BaseMS: 0.4},     // MS2
		{Name: "media", WorkMS: 2.4, CV: 0.70, BaseMS: 1.0},         // MS3
		{Name: "user", WorkMS: 1.5, CV: 0.45, BaseMS: 0.8},          // MS4
		{Name: "url", WorkMS: 1.2, CV: 0.35, BaseMS: 0.8},           // MS5
		{Name: "text", WorkMS: 2.8, CV: 0.55, BaseMS: 1.0},          // MS6
		{Name: "user-mention", WorkMS: 1.3, CV: 0.40, BaseMS: 0.8},  // MS7
		{Name: "compose-post", WorkMS: 3.4, CV: 0.80, BaseMS: 1.2},  // MS8
		{Name: "post-storage", WorkMS: 2.0, CV: 0.65, BaseMS: 1.5},  // MS9
		{Name: "user-timeline", WorkMS: 1.8, CV: 0.55, BaseMS: 1.2}, // MS10
	}
	text := par("text", leaf("url"), leaf("user-mention"))
	compose := par("compose-post", leaf("post-storage"), leaf("user-timeline"))
	root := &Call{
		Service: "nginx",
		Stages: [][]*Call{
			{leaf("unique-id"), leaf("media"), leaf("user"), text},
			{compose},
		},
	}
	apis := []API{{Name: "compose-post", Mix: 1, Root: root}}
	return New("social-network", services, apis)
}

// RobotShop returns the two-service Web → Catalogue slice of Instana's Robot
// Shop the paper uses for the latency-curve observation (Fig 5 left, Fig 6).
// Catalogue does more CPU work per request than Web, giving it the sharper
// latency-vs-quota curve of Fig 6.
func RobotShop() *App {
	services := []Service{
		{Name: "web", WorkMS: 4.0, CV: 0.7, BaseMS: 2.0},
		{Name: "catalogue", WorkMS: 11.0, CV: 0.8, BaseMS: 3.0},
	}
	apis := []API{{Name: "catalogue", Mix: 1, Root: seq("web", leaf("catalogue"))}}
	return New("robot-shop", services, apis)
}

// SyntheticChain returns a linear chain of n microservices (svc0 → svc1 →
// … → svc(n-1)) with a single API. It exists for the scalability study of
// §6: the readout dimension of GRAF's latency prediction model grows
// linearly with the number of microservices, and the chain lets benchmarks
// sweep that dimension ("GRAF's performance may degrade when applied to
// applications composed of hundreds to thousands of microservices").
func SyntheticChain(n int) *App {
	if n < 2 {
		panic("app: SyntheticChain needs at least 2 services")
	}
	services := make([]Service, n)
	for i := range services {
		services[i] = Service{
			Name:   fmt.Sprintf("svc%d", i),
			WorkMS: 1.5 + 0.5*float64(i%4),
			CV:     0.45,
			BaseMS: 1,
		}
	}
	var build func(i int) *Call
	build = func(i int) *Call {
		c := &Call{Service: services[i].Name}
		if i+1 < n {
			c.Stages = [][]*Call{{build(i + 1)}}
		}
		return c
	}
	apis := []API{{Name: "chain", Mix: 1, Root: build(0)}}
	return New(fmt.Sprintf("chain-%d", n), services, apis)
}

// Bookinfo returns Istio's Bookinfo app (paper Fig 5 right): Product Page
// calls Details and Reviews in parallel, and Reviews calls Ratings, so the
// end-to-end latency is max(Details, Reviews+Ratings) — the structural
// reason resource allocation must be graph-aware (§2.2).
func Bookinfo() *App {
	services := []Service{
		{Name: "productpage", WorkMS: 3.0, CV: 0.5, BaseMS: 1.2},
		{Name: "details", WorkMS: 1.2, CV: 0.45, BaseMS: 0.8},
		{Name: "reviews", WorkMS: 3.5, CV: 0.5, BaseMS: 1.2},
		{Name: "ratings", WorkMS: 1.5, CV: 0.45, BaseMS: 0.8},
	}
	root := par("productpage",
		leaf("details"),
		seq("reviews", leaf("ratings")),
	)
	apis := []API{{Name: "productpage", Mix: 1, Root: root}}
	return New("bookinfo", services, apis)
}

// ByName resolves a builtin application by its registered name — the form
// the multi-process control plane ships in its fleet spec, so every shard
// process reconstructs the identical graph. "chain-N" builds SyntheticChain
// for 2 ≤ N ≤ 256: the name arrives over the wire, so N must not size an
// allocation unchecked.
func ByName(name string) (*App, error) {
	switch name {
	case "online-boutique", "boutique":
		return OnlineBoutique(), nil
	case "social-network", "social":
		return SocialNetwork(), nil
	case "robot-shop", "robot", "robotshop":
		return RobotShop(), nil
	case "bookinfo":
		return Bookinfo(), nil
	}
	var n int
	if _, err := fmt.Sscanf(name, "chain-%d", &n); err == nil && n >= 2 && n <= 256 {
		return SyntheticChain(n), nil
	}
	return nil, fmt.Errorf("app: unknown application %q", name)
}
